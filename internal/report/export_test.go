package report

import "strings"

// String renders the plot to a string.
func (p *Plot) String() string {
	var b strings.Builder
	_ = p.Render(&b)
	return b.String()
}

// trimFloat is appendTrimFloat's text.
func trimFloat(v float64) string { return string(appendTrimFloat(nil, v)) }

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// rows returns the table's cells, row by row.
func (t *Table) rows() [][]string {
	var rows [][]string
	start := 0
	for k, end := range t.ends {
		if k%len(t.Headers) == 0 {
			rows = append(rows, nil)
		}
		rows[len(rows)-1] = append(rows[len(rows)-1], string(t.cells[start:end]))
		start = end
	}
	return rows
}
