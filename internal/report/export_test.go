package report

import "strings"

// String renders the plot to a string.
func (p *Plot) String() string {
	var b strings.Builder
	_ = p.Render(&b)
	return b.String()
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}
