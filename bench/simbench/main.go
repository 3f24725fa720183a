// Command simbench measures the host cost of the simulator: the wall-clock
// time, allocation and memory it takes to regenerate the paper's
// experiments, in four closed-loop workloads. A traced run attributes the
// CPU time to the simulator's layers.
//
//	simbench -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-out <dir>]
//	simbench -compare [-bench BENCHMARK.json] <set A> <set B>
//
// A run prints one "workload metric value unit" line per metric, sorted,
// then a JSON summary as its last line. See bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// summary is the result a run prints as its last line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a run's result as -out writes it and -compare reads it.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	summary
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, s := range specs() {
		names = append(names, s.name)
	}
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	traceDir := fs.String("tracedir", filepath.Join(".bench_build", "trace"), "directory a traced run writes its spans and CPU profile under")
	out := fs.String("out", "", "directory to write the result JSON into")
	compareMode := fs.Bool("compare", false, "compare two sets of results, given as two directories or as files separated by --")
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark definition -compare reads the bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		a, b, err := splitSets(fs.Args())
		if err == nil {
			err = compare(*benchFile, a, b, stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "simbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "simbench: -seconds must not be negative")
		return 2
	}
	if *name == "all" {
		return runAll(names, fs, stdout, stderr)
	}
	s, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "simbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}

	d := time.Duration(*seconds * float64(time.Second))
	var sum summary
	var err error
	if *trace == 1 {
		sum, err = measureTraced(s, *seed, d, filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d", s.name, *seed)), stderr)
	} else {
		sum, err = measure(s, *seed, d, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %s: %v\n", s.name, err)
		return 1
	}
	if *out != "" {
		rec := record{Workload: s.name, Seed: *seed, Seconds: *seconds, Trace: *trace, summary: sum}
		if err := writeJSON(filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", s.name, *seed, *trace)), rec); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
	}
	if err := printSummary(stdout, s.name, sum); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if !sum.Correct {
		return 1
	}
	return 0
}

// measure is an untraced run: set-up, then one timed phase.
func measure(s spec, seed uint64, d time.Duration, log io.Writer) (summary, error) {
	reqs, setupSecs, _, err := setup(s, seed)
	if err != nil {
		return summary{}, err
	}
	runtime.GC()
	ph := runPhase(reqs, s.clients, d, false)
	fmt.Fprintf(log, "simbench: %s: %d set-up reps, %d requests per rep, %d reps in %.1fs\n",
		s.name, len(setupSecs), len(reqs), ph.attempted/len(reqs), ph.elapsed.Seconds())
	reportFailures(log, ph)
	return summary{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   e2eMetrics(setupSecs, ph),
	}, nil
}

// measureTraced is a traced run: set-up, an untraced half-length phase
// whose throughput is the base of the tracing overhead, then a traced
// half-length phase under the CPU profiler with observers attached. It
// writes the spans and the profile under dir.
func measureTraced(s spec, seed uint64, d time.Duration, dir string, log io.Writer) (summary, error) {
	reqs, _, setupSpans, err := setup(s, seed)
	if err != nil {
		return summary{}, err
	}
	runtime.GC()
	ref := runPhase(reqs, s.clients, d/2, false)
	reportFailures(log, ref)
	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return summary{}, err
	}
	ph := runPhase(reqs, s.clients, d/2, true)
	pprof.StopCPUProfile()
	reportFailures(log, ph)

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return summary{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return summary{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return summary{}, err
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), append(setupSpans, ph.spans...)); err != nil {
		return summary{}, err
	}
	failed := ref.failed + ph.failed
	return summary{
		Correct:   failed == 0,
		Attempted: ref.attempted + ph.attempted,
		Failed:    failed,
		Metrics:   layerMetrics(ph, attribute(samples), ref.reqsPerSec(), runtime.GOMAXPROCS(0), s.observesAll),
	}, nil
}

func reportFailures(log io.Writer, ph phaseResult) {
	for _, f := range ph.failures {
		fmt.Fprintln(log, "simbench: failed:", f)
	}
	if ph.failed > len(ph.failures) {
		fmt.Fprintf(log, "simbench: %d failures in all\n", ph.failed)
	}
}

// printSummary prints one line per metric, sorted by name, then the JSON
// summary as the last line.
func printSummary(w io.Writer, workload string, sum summary) error {
	keys := make([]string, 0, len(sum.Metrics))
	for k := range sum.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		m := sum.Metrics[k]
		fmt.Fprintf(&b, "%s %s %s %s\n", workload, k, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	js, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	b.Write(js)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// runAll runs every workload in its own process, so each gets its own
// peak RSS, with the flags this run was given.
func runAll(names []string, fs *flag.FlagSet, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	rc := 0
	for _, name := range names {
		args := []string{"-workload", name}
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "simbench: %s: %v\n", name, err)
			rc = 1
		}
	}
	return rc
}

func writeJSON(path string, v any) error {
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// splitSets splits the comparator's arguments into its two sets: either
// two directories, or two lists of files separated by "--".
func splitSets(args []string) (a, b []string, err error) {
	for i, arg := range args {
		if arg == "--" {
			a, b = args[:i], args[i+1:]
			break
		}
	}
	if a == nil && b == nil {
		if len(args) != 2 {
			return nil, nil, errors.New("-compare wants two directories, or two lists of files separated by --")
		}
		a, b = args[:1], args[1:]
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, errors.New("-compare: each set needs at least one result")
	}
	return a, b, nil
}
