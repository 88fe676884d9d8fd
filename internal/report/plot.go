package report

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Plot is an ASCII scatter plot with an optionally logarithmic y axis, the
// rendering used for the paper's response-time figures (which all plot
// per-IO cost in ms on a log scale).
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Width  int
	Height int
	LogY   bool

	series []plotSeries
}

type plotSeries struct {
	name   string
	marker byte
	xs, ys []float64
}

// AddSeries adds a named series plotted with the given marker.
func (p *Plot) AddSeries(name string, marker byte, xs, ys []float64) {
	p.series = append(p.series, plotSeries{name: name, marker: marker, xs: xs, ys: ys})
}

// AddDurationSeries adds a response-time series indexed by IO number, in
// milliseconds.
func (p *Plot) AddDurationSeries(name string, marker byte, rts []time.Duration) {
	xs := make([]float64, len(rts))
	ys := make([]float64, len(rts))
	for i, rt := range rts {
		xs[i] = float64(i)
		ys[i] = rt.Seconds() * 1e3
	}
	p.AddSeries(name, marker, xs, ys)
}

// Render draws the plot.
func (p *Plot) Render(w io.Writer) error {
	width, height := p.Width, p.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 20
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range p.series {
		for i := range s.xs {
			x, y := s.xs[i], s.ys[i]
			if p.LogY && y <= 0 {
				continue
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if math.IsInf(minX, 1) {
		_, err := fmt.Fprintf(w, "%s\n(no data)\n", p.Title)
		return err
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY * 1.1
		if maxY == minY {
			maxY = minY + 1
		}
	}
	ty := func(y float64) float64 {
		if p.LogY {
			return math.Log10(y)
		}
		return y
	}
	loY, hiY := ty(minY), ty(maxY)
	if hiY == loY {
		hiY = loY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range p.series {
		for i := range s.xs {
			x, y := s.xs[i], s.ys[i]
			if p.LogY && y <= 0 {
				continue
			}
			col := int((x - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((ty(y)-loY)/(hiY-loY)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = s.marker
			}
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	var legend []string
	for _, s := range p.series {
		legend = append(legend, fmt.Sprintf("%c=%s", s.marker, s.name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "[%s]\n", strings.Join(legend, " "))
	}
	yTick := func(row int) float64 {
		v := hiY - (hiY-loY)*float64(row)/float64(height-1)
		if p.LogY {
			return math.Pow(10, v)
		}
		return v
	}
	for r := 0; r < height; r++ {
		label := ""
		if r == 0 || r == height-1 || r == height/2 {
			label = fmt.Sprintf("%9.3g", yTick(r))
		}
		fmt.Fprintf(&b, "%9s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%9s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%9s  %-*.4g%*.4g\n", "", width/2, minX, width-width/2, maxX)
	if p.XLabel != "" || p.YLabel != "" {
		fmt.Fprintf(&b, "x: %s, y: %s\n", p.XLabel, p.YLabel)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
