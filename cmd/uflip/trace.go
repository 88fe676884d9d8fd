package main

import (
	"flag"
	"fmt"

	"uflip/internal/workload"
)

// runTrace implements the "uflip trace" subcommand: utilities on block
// traces. convert streams a trace between the CSV form and the binary .utr
// form in either direction at O(1) memory, sniffing the input format from
// the file content.
func runTrace(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: uflip trace convert -in <trace> -out <trace> [-to csv|utr]")
	}
	switch args[0] {
	case "convert":
		return runTraceConvert(args[1:])
	default:
		return fmt.Errorf("unknown trace subcommand %q (want convert)", args[0])
	}
}

func runTraceConvert(args []string) error {
	fs := flag.NewFlagSet("uflip trace convert", flag.ContinueOnError)
	var (
		in  = fs.String("in", "", "input trace (CSV or .utr; format detected by content, not extension)")
		out = fs.String("out", "", "output trace path")
		to  = fs.String("to", "", "output format: csv or utr (default: by the -out extension)")
	)
	return run(fs, args, func() error {
		if *in == "" || *out == "" {
			return fmt.Errorf("pass -in <trace> and -out <trace>")
		}
		format := *to
		if format == "" {
			format = workload.FormatForPath(*out)
		}
		if format != workload.TraceFormatCSV && format != workload.TraceFormatUTR {
			return fmt.Errorf("unknown trace format %q (want csv or utr)", format)
		}
		n, err := workload.ConvertTraceFile(*in, *out, format)
		if err != nil {
			return err
		}
		fmt.Printf("converted %d records: %s -> %s (%s)\n", n, *in, *out, format)
		return nil
	})
}
