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
	"math"
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

// pow10 holds 10^-3 … 10^15. The three fractions are each stored a little
// above their value, so |v| >= pow10[k] exactly when |v| >= 10^(k-3).
var pow10 = [...]float64{1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// trimFloat prints v with three decimals, as strconv's 'f' format does, then
// drops the trailing zeros and a bare point. strconv takes its
// multiprecision path for 'f'; a finite v below 1e15 in magnitude is printed
// from the 'e' format instead, at the precision that ends on the thousandth
// (ryū's fixed path, a quarter of the time), and reassembled. What rounds
// away entirely, below 10^-3, is settled by one comparison.
func trimFloat(v float64) string {
	a := math.Abs(v)
	switch {
	case !(a < 1e15): // infinities, NaN and the largest values
		var buf [32]byte
		s := strconv.AppendFloat(buf[:0], v, 'f', 3, 64)
		return string(bytes.TrimRight(bytes.TrimRight(s, "0"), "."))
	case a < 1e-3:
		// 5e-4 is stored above 0.0005, so no value here is a tie.
		s := "0"
		if a >= 5e-4 {
			s = "0.001"
		}
		if math.Signbit(v) {
			s = "-" + s
		}
		return s
	}
	exp := -3 // v's decimal exponent
	for a >= pow10[exp+4] {
		exp++
	}
	var buf, out [32]byte
	s := strconv.AppendFloat(buf[:0], v, 'e', exp+3, 64) // [-]d[.ddd]e±dd
	o := out[:0]
	if s[0] == '-' {
		o = append(o, '-')
		s = s[1:]
	}
	e := bytes.IndexByte(s, 'e')
	x := int(s[e+2]-'0')*10 + int(s[e+3]-'0') // exp, or exp+1 when rounding carried
	if s[e+1] == '-' {
		x = -x
	}
	lead, frac := s[:1], s[min(2, e):e] // the digits before and after the point
	if x < 0 {
		o = append(append(append(o, "0.00"[:1-x]...), lead...), frac...)
	} else {
		o = append(append(o, lead...), frac[:x]...)
		o = append(append(o, '.'), frac[x:]...)
	}
	return string(bytes.TrimRight(bytes.TrimRight(o, "0"), "."))
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
