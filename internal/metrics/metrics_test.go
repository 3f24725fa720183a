package metrics

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("qlock")
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i*100), int64(i%4))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Max() != 3 {
		t.Fatalf("Max = %d, want 3", s.Max())
	}
	if m := s.Mean(); m < 1.3 || m > 1.5 {
		t.Fatalf("Mean = %v, want 1.4", m)
	}
	if f := s.FracAbove(2); f != 0.2 {
		t.Fatalf("FracAbove(2) = %v, want 0.2", f)
	}
	tm, v := s.At(3)
	if tm != 300 || v != 3 {
		t.Fatalf("At(3) = %v,%d", tm, v)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty")
	if s.Max() != 0 || s.Mean() != 0 || s.FracAbove(0) != 0 {
		t.Fatal("empty series stats nonzero")
	}
	if sp := s.Sparkline(8); len([]rune(sp)) != 8 {
		t.Fatalf("sparkline length %d, want 8", len([]rune(sp)))
	}
}

func TestSeriesBuckets(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 100; i++ {
		s.Add(sim.Time(i), int64(i))
	}
	bs := s.Buckets(10)
	if len(bs) != 10 {
		t.Fatalf("buckets = %d", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bucket means not increasing for a ramp: %v", bs)
		}
	}
}

func TestSparklineShape(t *testing.T) {
	s := NewSeries("ramp")
	for i := 0; i < 64; i++ {
		s.Add(sim.Time(i), int64(i))
	}
	sp := []rune(s.Sparkline(8))
	if sp[0] >= sp[7] {
		t.Fatalf("ramp sparkline not increasing: %q", string(sp))
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1: results", "Lock type", "local", "remote")
	tb.AddRow("spin-lock", "40.79µs", "41.10µs")
	tb.AddRow("blocking-lock", "88.59µs", "91.73µs")
	out := tb.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "blocking-lock") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, header, rule, two rows.
	if len(lines) != 5 {
		t.Fatalf("render has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableShortRowsPad(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	want := "a     b  c\n----------\nonly      \n"
	if got := tb.String(); got != want {
		t.Fatalf("short row renders %q, want %q", got, want)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("waits")
	for _, d := range []sim.Time{0, 1, 2, 3, 4, 100, 1000, 1_000_000} {
		h.Record(d)
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1_000_000 {
		t.Fatalf("Max = %v", h.Max())
	}
	if h.Mean() <= 0 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Record(-5); h.Count() != 9 {
		t.Fatal("negative sample not clamped and counted")
	}
	out := h.String()
	if !strings.Contains(out, "waits") {
		t.Fatalf("render missing name:\n%s", out)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("q")
	for i := 0; i < 90; i++ {
		h.Record(10) // bucket [8,16)
	}
	for i := 0; i < 10; i++ {
		h.Record(100_000)
	}
	if q := h.Quantile(0.5); q > 16 {
		t.Fatalf("p50 = %v, want ≤ 16", q)
	}
	if q := h.Quantile(0.99); q < 100_000 {
		t.Fatalf("p99 = %v, want ≥ 100000", q)
	}
	empty := NewHistogram("e")
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile nonzero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := map[sim.Time]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1024: 10}
	for d, want := range cases {
		if got := bucketOf(d); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", int64(d), got, want)
		}
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	s := NewSeries("qlock")
	s.Add(10, 1)
	s.Add(20, 3)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "time_ns,qlock\n10,1\n20,3\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}
