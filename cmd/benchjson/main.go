// Command benchjson converts `go test -bench` output into a stable JSON
// baseline so benchmark results can be committed and diffed across PRs.
// It records the host context (goos/goarch/cpu), the wall-clock cost and
// allocation profile of each benchmark, and every custom metric — for this
// repo, the simulated quantities (sim-ms-*, improvement-%, speedup), which
// are deterministic and therefore exact regression anchors even when
// wall-clock numbers move with the hardware.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/sim > micro.out
//	benchjson -out BENCH_sim.json micro.out [more.out ...]
//
// With -compare it acts as a regression gate instead: the fresh run is
// diffed against the committed baseline, and any drift in a deterministic
// custom metric (the sim-* quantities, ratios, and thresholds the
// benchmarks report) is a hard failure. Wall-clock numbers (ns/op, B/op,
// allocs/op) move with the hardware and the implementation, so they are
// reported but never gate:
//
//	go test -run '^$' -bench . -benchmem -benchtime=1x . > macro.out
//	benchjson -compare BENCH_sim.json macro.out
//
// With -update it runs the two benchmark suites itself (the same commands
// `make bench` issues) and regenerates the baseline in place:
//
//	benchjson -update
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the custom b.ReportMetric values — here, simulated
	// times and ratios that must not drift between runs of the same seed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the file layout of BENCH_sim.json.
type Baseline struct {
	Note       string      `json:"note"`
	Go         string      `json:"go"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "BENCH_sim.json", "output JSON path (- for stdout)")
	compare := flag.String("compare", "",
		"baseline JSON to diff the fresh run against; exits 1 on any deterministic-metric drift (no output file is written)")
	update := flag.Bool("update", false,
		"run the micro and macro benchmark suites (the same commands as `make bench`) and regenerate -out in place; takes no input files")
	flag.Parse()

	base := Baseline{
		Note: "benchmark baseline written by `make bench`; sim-* metrics are deterministic, ns/op is hardware-dependent",
		Go:   runtime.Version(),
	}
	inputs := flag.Args()
	switch {
	case *update:
		if *compare != "" {
			log.Fatal("-update and -compare are mutually exclusive")
		}
		if len(inputs) > 0 {
			log.Fatal("-update takes no input files (it runs the benchmark suites itself)")
		}
		// Mirror `make bench`: engine and LMSK micro-benchmarks at full
		// benchtime, paper-table macro benchmarks at one deterministic
		// iteration.
		for _, args := range [][]string{
			{"test", "-run", "^$", "-bench", ".", "-benchmem", "./internal/sim", "./internal/tsp"},
			{"test", "-run", "^$", "-bench", ".", "-benchmem", "-benchtime=1x", "."},
		} {
			fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
			cmd := exec.Command("go", args...)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			if err != nil {
				log.Fatalf("go %s: %v", strings.Join(args, " "), err)
			}
			os.Stdout.Write(raw)
			parse(&base, bytes.NewReader(raw))
		}
	case len(inputs) == 0:
		parse(&base, os.Stdin)
	}
	for _, path := range inputs {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		parse(&base, f)
		f.Close()
	}
	if len(base.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found in input")
	}

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			log.Fatal(err)
		}
		var committed Baseline
		if err := json.Unmarshal(raw, &committed); err != nil {
			log.Fatalf("parsing %s: %v", *compare, err)
		}
		compared, drift := compareBaselines(&committed, &base, os.Stdout)
		if drift > 0 {
			log.Fatalf("%d deterministic metric(s) drifted from %s", drift, *compare)
		}
		if compared == 0 {
			log.Fatalf("no benchmark in the input matches one in %s: nothing was compared", *compare)
		}
		fmt.Printf("benchjson: no deterministic drift against %s\n", *compare)
		return
	}

	enc, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(base.Benchmarks), *out)
}

// deterministicMetric reports whether a custom metric unit is an exact
// regression anchor. Everything the benchmarks emit via b.ReportMetric is
// a simulated quantity and therefore deterministic, except throughput,
// which go test derives from wall-clock time.
func deterministicMetric(unit string) bool { return unit != "MB/s" }

// compareBaselines diffs a fresh run against the committed baseline. It
// returns how many benchmarks were present in both runs and the number of
// drifted deterministic metrics — missing, added, or changed on any of
// them — and writes both the failures and the report-only wall-clock
// deltas to w. Benchmarks only in one of the two runs are noted but never
// gate, so a quick partial run
// (e.g. CI's Table1 smoke) can still compare what it has; a run sharing no
// benchmark with the baseline is the caller's to reject.
func compareBaselines(committed, fresh *Baseline, w io.Writer) (compared, drift int) {
	freshByName := map[string]*Benchmark{}
	for i := range fresh.Benchmarks {
		b := &fresh.Benchmarks[i]
		freshByName[b.Name] = b
	}
	for i := range committed.Benchmarks {
		old := &committed.Benchmarks[i]
		new, ok := freshByName[old.Name]
		if !ok {
			fmt.Fprintf(w, "  skip   %-32s not in this run\n", old.Name)
			continue
		}
		delete(freshByName, old.Name)
		compared++
		if old.NsPerOp > 0 && new.NsPerOp > 0 {
			fmt.Fprintf(w, "  ns/op  %-32s %14.4g -> %-14.4g (%+.1f%%, report-only)\n",
				old.Name, old.NsPerOp, new.NsPerOp, 100*(new.NsPerOp-old.NsPerOp)/old.NsPerOp)
		}
		units := map[string]bool{}
		for u := range old.Metrics {
			units[u] = true
		}
		for u := range new.Metrics {
			units[u] = true
		}
		keys := make([]string, 0, len(units))
		for u := range units {
			keys = append(keys, u)
		}
		sort.Strings(keys)
		for _, u := range keys {
			if !deterministicMetric(u) {
				continue
			}
			ov, inOld := old.Metrics[u]
			nv, inNew := new.Metrics[u]
			switch {
			case !inOld:
				drift++
				fmt.Fprintf(w, "  DRIFT  %s: metric %q = %g not in baseline\n", old.Name, u, nv)
			case !inNew:
				drift++
				fmt.Fprintf(w, "  DRIFT  %s: metric %q = %g missing from this run\n", old.Name, u, ov)
			case ov != nv:
				drift++
				fmt.Fprintf(w, "  DRIFT  %s: metric %q = %g, baseline %g\n", old.Name, u, nv, ov)
			}
		}
	}
	extra := make([]string, 0, len(freshByName))
	for name := range freshByName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  new    %-32s not in baseline (add via `make bench`)\n", name)
	}
	fmt.Fprintf(w, "benchjson: compared %d benchmark(s), %d drifted\n", compared, drift)
	return compared, drift
}

// parse consumes one `go test -bench` output stream, picking up the
// context header lines (goos/goarch/cpu/pkg) and every Benchmark line.
func parse(base *Baseline, r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			base.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if b, ok := parseLine(line); ok {
			b.Package = pkg
			base.Benchmarks = append(base.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// parseLine parses one benchmark result line: a name, an iteration count,
// then (value, unit) pairs. The name is recorded without the -<GOMAXPROCS>
// suffix go test appends when GOMAXPROCS > 1, so a baseline written on one
// host matches a run on another.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: trimProcs(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "MB/s":
			b.Metrics["MB/s"] = v
		default:
			b.Metrics[unit] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

// trimProcs strips a trailing -<digits> GOMAXPROCS suffix from a benchmark
// name ("BenchmarkLockContended/cohort/w2-2" → ".../w2"). The suffix is
// only ever appended to the last path element, after any sub-benchmark
// name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= strings.LastIndexByte(name, '/') || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}
