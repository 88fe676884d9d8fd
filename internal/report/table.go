// Package report renders uFLIP results the way the paper presents them:
// text tables (Tables 1-3), ASCII plots of per-IO response-time series and
// parameter sweeps (Figures 3-8), and the key-characteristics summary that
// condenses a full benchmark into one Table 3 row per device.
package report

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple text table with a header row.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row. A float64 prints with at most three decimals and no
// trailing zeros, an int, int64 or string as itself, anything else with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case int:
			row[i] = strconv.Itoa(v)
		case int64:
			row[i] = strconv.FormatInt(v, 10)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], v, 'f', 3, 64)
	return string(bytes.TrimRight(bytes.TrimRight(s, "0"), "."))
}

// Render writes the table with aligned columns, through a buffer of 4 KiB.
// A column is as wide as its longest cell in bytes, and a cell is padded by
// its rune count, as %-*s pads.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	// A failed write sticks in bw and Flush returns it.
	bw := bufio.NewWriterSize(w, 4<<10)
	if t.Title != "" {
		bw.WriteString(t.Title)
		bw.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				bw.WriteString("  ")
			}
			bw.WriteString(cell)
			for pad := widths[i] - utf8.RuneCountInString(cell); pad > 0; pad-- {
				bw.WriteByte(' ')
			}
		}
		bw.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return bw.Flush()
}
