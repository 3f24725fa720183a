package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(v, n=4), the definition the benchmark's spreads
// are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	tests := []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25}, // quantiles(range(1, 11), n=4)
		{[]float64{1, 2, 4}, 1, 2, 4},                               // quantiles([1, 2, 4], n=4)
		{[]float64{1, 3}, 0.5, 2, 3.5},                              // quantiles([1, 3], n=4)
		{[]float64{7}, 7, 7, 7},
	}
	for _, tt := range tests {
		q1, m, q3 := quartiles(tt.v)
		if q1 != tt.q1 || m != tt.m || q3 != tt.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tt.v, q1, m, q3, tt.q1, tt.m, tt.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.10
	lower := metricDef{Better: "lower", Bound: &bound}
	higher := metricDef{Better: "higher", Bound: &bound}
	perLayer := metricDef{Better: "lower"}
	tests := []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", []float64{100, 101, 99, 100}, []float64{100, 100, 101, 99}, lower, "unchanged"},
		{"within bound", []float64{100, 101, 99, 100}, []float64{105, 106, 104, 105}, lower, "unchanged"},
		{"slower", []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, lower, "worse"},
		{"faster", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, lower, "better"},
		{"higher is better", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, higher, "worse"},
		{"noisy", []float64{50, 100, 150, 100}, []float64{100, 101, 99, 100}, lower, "unresolved"},
		{"noisy but every run better", []float64{150, 200, 250, 200}, []float64{100, 101, 99, 100}, lower, "better"},
		{"one run", []float64{100}, []float64{100, 101}, lower, "unresolved"},
		{"per-layer moved past noise", []float64{100, 101, 99, 100}, []float64{150, 151, 149, 150}, perLayer, "worse"},
		{"zero counter", []float64{0, 0}, []float64{0, 0}, perLayer, "unchanged"},
	}
	for _, tt := range tests {
		if got := verdict(tt.a, tt.b, tt.d); got != tt.want {
			t.Errorf("%s: verdict = %s, want %s", tt.name, got, tt.want)
		}
	}
}

func TestCompareReadsBoundsAndSets(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "reqs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
		"per_layer": [{"name": "sim.heap.cpu_ms_per_req", "unit": "ms", "better": "lower"}]}`), 0o644)
	write := func(set string, seed uint64, rps float64) {
		rec := record{Workload: "w", Seed: seed, summary: summary{Correct: true, Attempted: 1,
			Metrics: map[string]metric{"reqs_per_s": {rps, "1/s"}}}}
		if err := writeJSON(filepath.Join(dir, set, filepath.Base(set)+string(rune('0'+seed))+".json"), rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{100, 102, 98} {
		write("a", uint64(i), v)
		write("b", uint64(i), v*0.5)
	}
	var out bytes.Buffer
	if err := compare(bench, []string{filepath.Join(dir, "a")}, []string{filepath.Join(dir, "b")}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "reqs_per_s") || !strings.HasSuffix(lines[1], "worse") {
		t.Fatalf("compare output:\n%s", out.String())
	}

	os.WriteFile(bench, []byte(`{"end_to_end": [], "per_layer": []}`), 0o644)
	if err := compare(bench, []string{filepath.Join(dir, "a")}, []string{filepath.Join(dir, "b")}, &out); err == nil {
		t.Fatal("compare accepted a metric BENCHMARK.json does not declare")
	}
}

func TestSplitSets(t *testing.T) {
	a, b, err := splitSets([]string{"x.json", "y.json", "--", "z.json"})
	if err != nil || len(a) != 2 || len(b) != 1 {
		t.Fatalf("split with -- = %v %v %v", a, b, err)
	}
	if a, b, err = splitSets([]string{"dirA", "dirB"}); err != nil || a[0] != "dirA" || b[0] != "dirB" {
		t.Fatalf("split of two directories = %v %v %v", a, b, err)
	}
	for _, args := range [][]string{{"only"}, {"a", "b", "c"}, {"a", "--"}} {
		if _, _, err := splitSets(args); err == nil {
			t.Errorf("splitSets(%v) accepted", args)
		}
	}
}
