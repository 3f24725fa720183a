package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json the comparator needs.
type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef declares one metric. Per-layer metrics carry no bound.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchDef(path string) (map[string]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defs := map[string]metricDef{}
	for _, d := range append(def.EndToEnd, def.PerLayer...) {
		defs[d.Name] = d
	}
	return defs, nil
}

// readRecords loads result files; a directory stands for its *.json files.
func readRecords(paths []string) ([]record, error) {
	var files []string
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, p)
			continue
		}
		m, err := filepath.Glob(filepath.Join(p, "*.json"))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	var recs []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// cellKey is one (workload, metric) row of the comparison.
type cellKey struct{ workload, metric string }

func collect(recs []record) map[cellKey][]float64 {
	vals := map[cellKey][]float64{}
	for _, r := range recs {
		for name, m := range r.Metrics {
			vals[cellKey{r.Workload, name}] = append(vals[cellKey{r.Workload, name}], m.Value)
		}
	}
	return vals
}

// compare prints one row per (workload, metric) found in either set, with
// each side's run count, median and quartiles and a verdict against the
// metric's bound in BENCHMARK.json.
func compare(benchPath string, setA, setB []string, w io.Writer) error {
	defs, err := readBenchDef(benchPath)
	if err != nil {
		return err
	}
	recsA, err := readRecords(setA)
	if err != nil {
		return err
	}
	recsB, err := readRecords(setB)
	if err != nil {
		return err
	}
	a, b := collect(recsA), collect(recsB)
	var keys []cellKey
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tnA\tmedA\tq1A\tq3A\tnB\tmedB\tq1B\tq3B\tchange\tbound\tverdict")
	for _, k := range keys {
		d, ok := defs[k.metric]
		if !ok {
			return fmt.Errorf("metric %q is not declared in %s", k.metric, benchPath)
		}
		va, vb := a[k], b[k]
		q1a, meda, q3a := quartiles(va)
		q1b, medb, q3b := quartiles(vb)
		bound := "-"
		if d.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", 100**d.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%d\t%.4g\t%.4g\t%.4g\t%s\t%s\t%s\n",
			k.workload, k.metric, d.Unit, len(va), meda, q1a, q3a, len(vb), medb, q1b, q3b,
			relChange(meda, medb), bound, verdict(va, vb, d))
	}
	return tw.Flush()
}

func relChange(a, b float64) string {
	if a == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b-a)/math.Abs(a))
}

// verdict judges set B against set A. A metric whose spread (the distance
// between its quartiles, as a share of its median) is wider than its
// bound on either side is unresolved, unless every run of B reads better
// than every run of A. Otherwise B is worse when its median is worse than
// A's by more than the bound, better when it is better by more than the
// bound and more than A's own spread, and unchanged in between. A metric
// without a bound (a per-layer one) takes the wider of the two spreads as
// its bound; one with fewer than two runs on a side is unresolved.
func verdict(a, b []float64, d metricDef) string {
	if len(a) < 2 || len(b) < 2 {
		return "unresolved"
	}
	higher := d.Better == "higher"
	sa, sb := spread(a), spread(b)
	bound := math.Max(sa, sb)
	if d.Bound != nil {
		bound = *d.Bound
	}
	if sa > bound || sb > bound {
		if allBetter(a, b, higher) {
			return "better"
		}
		return "unresolved"
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	var gain float64 // positive when B is better
	switch {
	case ma == mb:
		return "unchanged"
	case ma == 0:
		gain = math.Copysign(math.Inf(1), mb)
	default:
		gain = (mb - ma) / math.Abs(ma)
	}
	if !higher {
		gain = -gain
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > bound && gain > sa:
		return "better"
	}
	return "unchanged"
}

func allBetter(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (higher && y <= x) || (!higher && y >= x) {
				return false
			}
		}
	}
	return true
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// quartiles returns the three quartile cut points the way Python's
// statistics.quantiles(v, n=4) does (its default, exclusive method).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
