// Package metrics provides the measurement and reporting plumbing shared
// by the experiment harness: time series of sampled values (the paper's
// locking-pattern figures plot waiting-thread counts over time), summary
// statistics, and fixed-width table rendering for the paper's tables.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// Series is an append-only time series of int64 samples at virtual times.
type Series struct {
	Name string
	ts   []sim.Time
	vs   []int64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends one sample. Samples must arrive in non-decreasing time order
// (they do, since the simulation clock is monotonic).
func (s *Series) Add(t sim.Time, v int64) {
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.vs) }

// At returns the i-th sample.
func (s *Series) At(i int) (sim.Time, int64) { return s.ts[i], s.vs[i] }

// Max returns the largest sample value (0 for an empty series).
func (s *Series) Max() int64 {
	var m int64
	for _, v := range s.vs {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the average sample value (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.vs) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s.vs {
		sum += v
	}
	return float64(sum) / float64(len(s.vs))
}

// FracAbove returns the fraction of samples strictly greater than v.
func (s *Series) FracAbove(v int64) float64 {
	if len(s.vs) == 0 {
		return 0
	}
	n := 0
	for _, x := range s.vs {
		if x > v {
			n++
		}
	}
	return float64(n) / float64(len(s.vs))
}

// Buckets downsamples the series into n time buckets, averaging the values
// in each; empty buckets repeat 0. Used for ASCII rendering.
func (s *Series) Buckets(n int) []float64 {
	out := make([]float64, n)
	if len(s.ts) == 0 || n == 0 {
		return out
	}
	t0, t1 := s.ts[0], s.ts[len(s.ts)-1]
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	counts := make([]int, n)
	for i, t := range s.ts {
		b := int(int64(t-t0) * int64(n) / (int64(span) + 1))
		if b >= n {
			b = n - 1
		}
		out[b] += float64(s.vs[i])
		counts[b]++
	}
	for i := range out {
		if counts[i] > 0 {
			out[i] /= float64(counts[i])
		}
	}
	return out
}

// Sparkline renders the series as an n-character block sparkline scaled to
// its own maximum — a terminal rendition of the paper's pattern figures.
func (s *Series) Sparkline(n int) string {
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	bs := s.Buckets(n)
	var max float64
	for _, b := range bs {
		if b > max {
			max = b
		}
	}
	var sb strings.Builder
	for _, b := range bs {
		idx := 0
		if max > 0 {
			idx = int(b / max * float64(len(blocks)-1))
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

// Table is a fixed-width text table in the style of the paper's tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with padded columns and a rule under the
// header.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if w := len([]rune(cell)); w > widths[i] {
				widths[i] = w
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len([]rune(cell))))
		}
		sb.WriteString("\n")
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	sb.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// WriteCSV emits the series as "time_ns,value" rows with a header, for
// external plotting of the locking-pattern figures.
func (s *Series) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "time_ns,%s\n", s.Name); err != nil {
		return err
	}
	for i := range s.vs {
		if _, err := fmt.Fprintf(bw, "%d,%d\n", int64(s.ts[i]), s.vs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
