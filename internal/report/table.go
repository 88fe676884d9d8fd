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
	"unicode/utf8"
)

// Table is a simple text table with a header row. Its cells are formatted
// into one arena, row after row, a row one cell per header.
type Table struct {
	Title   string
	Headers []string
	cells   []byte // every cell's bytes, one after the other
	ends    []int  // where each cell ends in cells
}

// AddRow appends a row. A float64 prints with at most three decimals and no
// trailing zeros, an int, int64 or string as itself, anything else with %v.
func (t *Table) AddRow(cells ...interface{}) {
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			t.addFloat(v)
		case int:
			t.addInt(int64(v))
		case int64:
			t.addInt(v)
		case string:
			t.addText(v)
		default:
			t.add(fmt.Append(t.cells, c))
		}
	}
}

// addText, addFloat and addInt append one cell as AddRow formats it, and
// add one whose bytes have been appended to the arena.
func (t *Table) addText(s string)   { t.add(append(t.cells, s...)) }
func (t *Table) addFloat(v float64) { t.add(appendTrimFloat(t.cells, v)) }
func (t *Table) addInt(v int64)     { t.add(strconv.AppendInt(t.cells, v, 10)) }
func (t *Table) add(cells []byte)   { t.cells, t.ends = cells, append(t.ends, len(cells)) }

// pow10 holds 10^-3 … 10^15. The three fractions are each stored a little
// above their value, so |v| >= pow10[k] exactly when |v| >= 10^(k-3).
var pow10 = [...]float64{1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendTrimFloat appends v with three decimals, as strconv's 'f' format
// does, then drops the trailing zeros and a bare point. strconv takes its
// multiprecision path for 'f'; a finite v below 1e15 in magnitude is printed
// from the 'e' format instead, at the precision that ends on the thousandth
// (ryū's fixed path, a quarter of the time), and reassembled. What rounds
// away entirely, below 10^-3, is settled by one comparison.
func appendTrimFloat(b []byte, v float64) []byte {
	a := math.Abs(v)
	switch {
	case !(a < 1e15): // infinities, NaN and the largest values
		var buf [32]byte
		s := strconv.AppendFloat(buf[:0], v, 'f', 3, 64)
		return append(b, bytes.TrimRight(bytes.TrimRight(s, "0"), ".")...)
	case a < 1e-3:
		if math.Signbit(v) {
			b = append(b, '-')
		}
		// 5e-4 is stored above 0.0005, so no value here is a tie.
		if a >= 5e-4 {
			return append(b, "0.001"...)
		}
		return append(b, '0')
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
	return append(b, bytes.TrimRight(bytes.TrimRight(o, "0"), ".")...)
}

// Render writes the table with aligned columns: straight into a
// *bytes.Buffer, through a buffer of 4 KiB into any other writer. A column is
// as wide as its longest cell in bytes, and a cell is padded by its rune
// count, as %-*s pads.
func (t *Table) Render(w io.Writer) error {
	if b, ok := w.(*bytes.Buffer); ok {
		t.render(b)
		return nil
	}
	// A failed write sticks in bw and Flush returns it.
	bw := bufio.NewWriterSize(w, 4<<10)
	t.render(bw)
	return bw.Flush()
}

// render writes the table to bw, whose writes cannot fail or keep the first
// failure.
func (t *Table) render(bw interface {
	io.Writer
	io.StringWriter
	io.ByteWriter
}) {
	n := len(t.Headers)
	widths := make([]int, n)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	start := 0
	for k, end := range t.ends {
		widths[k%n] = max(widths[k%n], end-start)
		start = end
	}
	if t.Title != "" {
		bw.WriteString(t.Title)
		bw.WriteByte('\n')
	}
	// Each cell is padded to its column's width by its rune count, as %-*s
	// pads, and a row ends after its last.
	pad := func(i, runes int) {
		for ; runes < widths[i]; runes++ {
			bw.WriteByte(' ')
		}
		if i == n-1 {
			bw.WriteByte('\n')
		} else {
			bw.WriteString("  ")
		}
	}
	for i, h := range t.Headers {
		bw.WriteString(h)
		pad(i, utf8.RuneCountInString(h))
	}
	for i, w := range widths {
		for range w {
			bw.WriteByte('-')
		}
		pad(i, w)
	}
	start = 0
	for k, end := range t.ends {
		bw.Write(t.cells[start:end])
		pad(k%n, utf8.RuneCount(t.cells[start:end]))
		start = end
	}
}
