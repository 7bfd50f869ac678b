// Package trace provides the measurement plumbing the benchmark harness
// uses to regenerate the paper's tables and figures: series of
// (x, y) observations, summary statistics, and fixed-width table /
// CSV rendering so every experiment prints the same rows the paper
// reports.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one observation in a series.
type Point struct {
	X float64
	Y float64
}

// Series is an ordered set of observations with a name.
type Series struct {
	Name   string
	Points []Point
}

// Add appends an observation.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Min, Max   float64
	Stddev           float64
	Median, P90, P99 float64
}

// Summarize computes descriptive statistics. An empty sample yields a
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	variance := sumSq/float64(len(xs)) - s.Mean*s.Mean
	if variance > 0 {
		s.Stddev = math.Sqrt(variance)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.P90 = quantile(sorted, 0.9)
	s.P99 = quantile(sorted, 0.99)
	return s
}

// quantile reads the q-quantile from a sorted sample (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// LinearFit returns the least-squares slope and intercept of a series,
// used to check "grows almost linearly" claims (Figure 7).
func LinearFit(points []Point) (slope, intercept float64) {
	n := float64(len(points))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range points {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		sxy += p.X * p.Y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// RSquared measures how well a linear fit explains a series.
func RSquared(points []Point) float64 {
	if len(points) < 2 {
		return 1
	}
	slope, intercept := LinearFit(points)
	var meanY float64
	for _, p := range points {
		meanY += p.Y
	}
	meanY /= float64(len(points))
	var ssRes, ssTot float64
	for _, p := range points {
		pred := slope*p.X + intercept
		ssRes += (p.Y - pred) * (p.Y - pred)
		ssTot += (p.Y - meanY) * (p.Y - meanY)
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}

// Table renders fixed-width text tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }
