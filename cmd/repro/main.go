// Command repro regenerates the paper's tables and figures and the
// extension experiments: every experiment registered in
// internal/experiments, selected by name.
//
// Usage:
//
//	repro [flags] <name>... | all
//
// Run without arguments to list the experiments and their claims. Each
// experiment declares the inputs it reads; a flag set on the command line
// that no selected experiment reads is a usage error (exit 2), as is an
// unknown name.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/tsp"
)

// flagInputs maps each flag to the experiment input it sets. Flags absent
// here (-j, -no-spin-batch, -cpuprofile, -memprofile) change how, not
// what, any experiment runs.
var flagInputs = map[string]experiments.Input{
	"procs":  experiments.InMachine,
	"iters":  experiments.InIters,
	"lock":   experiments.InKinds,
	"seed":   experiments.InTSP,
	"cities": experiments.InTSP, "searchers": experiments.InTSP,
	"uniform": experiments.InTSP, "steps": experiments.InTSP, "file": experiments.InTSP,
	"csvdir": experiments.InCSV,
	"trace":  experiments.InTrace, "trace-capacity": experiments.InTrace,
	"trace-engine": experiments.InTrace, "trace-reports": experiments.InTrace,
	"profile-vt": experiments.InObserve, "ledger": experiments.InObserve,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit status, 2 for a usage
// error and 1 for a failed experiment or output file.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 0, "simulated processors (0 = each experiment's default)")
	iters := fs.Int("iters", 16, "repetitions per measured lock operation")
	lockKind := fs.String("lock", "",
		"restrict table4, table5, and wait-latency to one lock kind (valid kinds: "+strings.Join(locks.KindNames(), ", ")+")")
	seed := fs.Uint64("seed", 1, "deterministic TSP instance seed")
	cities := fs.Int("cities", 16, "TSP instance size (the paper used 32)")
	searchers := fs.Int("searchers", 10, "TSP searcher threads, one per processor (paper: 10)")
	uniform := fs.Bool("uniform", false, "uniform random TSP instance instead of Euclidean")
	steps := fs.Int("steps", 0, "instruction steps per TSP expansion work unit (0 = calibrated default)")
	file := fs.String("file", "", "TSPLIB file (EUC_2D or FULL_MATRIX) to solve instead of a generated instance")
	csvdir := fs.String("csvdir", "", "write each locking-pattern figure's series as CSV into this directory")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0),
		"parallel workers for independent sweep simulations (1 = serial; output is identical for any value)")
	noSpinBatch := fs.Bool("no-spin-batch", false,
		"emulate every futile busy-wait probe per-iteration instead of batching them in the engine (slower wall clock; simulated results are identical)")
	tf := cli.TraceFlags(fs)
	obs := cli.ObserveFlags(fs)
	prof := cli.ProfileFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: repro [flags] <name>... | all\n\nexperiments:\n")
		for _, s := range experiments.Registry() {
			fmt.Fprintf(stderr, "  %-13s %s\n", s.Name, s.Claim)
		}
		fmt.Fprintf(stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	env := experiments.Env{
		Machine: sim.Config{Nodes: *procs},
		Jobs:    *jobs,
		Iters:   *iters,
		TSP: experiments.TSPOptions{Cities: *cities, Seed: *seed, Searchers: *searchers,
			Uniform: *uniform, StepsPerWorkUnit: *steps},
		CSVDir: *csvdir,
	}
	specs, err := selectSpecs(fs)
	if err == nil {
		err = validateCounts(*procs, *iters, *searchers, *cities, *steps)
	}
	if err == nil && *lockKind != "" {
		env.Kinds, err = lockKinds(*lockKind)
	}
	if err == nil && *file != "" {
		env.TSP.Instance, err = readTSPLIB(*file)
	}
	if err != nil {
		fmt.Fprintf(stderr, "repro: %v\n", err)
		if len(fs.Args()) == 0 {
			fs.Usage()
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "repro: %v\n", err)
		return 1
	}
	if *noSpinBatch {
		sim.SetDefaultBatchedSpins(false)
	}
	env.Tracer, env.Profiler, env.Ledger = tf.Tracer(), obs.Profiler(), obs.Ledger()
	if err := prof.Start(); err != nil {
		return fail(err)
	}
	defer prof.Stop()
	for _, s := range specs {
		res, err := s.Run(env.Restrict(s.Reads))
		if err != nil {
			return fail(fmt.Errorf("%s: %w", s.Name, err))
		}
		io.WriteString(stdout, res.Text)
	}
	if err := tf.Flush(env.Tracer, stdout); err != nil {
		return fail(err)
	}
	if err := obs.Flush(); err != nil {
		return fail(err)
	}
	if err := prof.Stop(); err != nil {
		return fail(err)
	}
	return 0
}

// selectSpecs resolves the experiment names left on fs's command line
// ("all" selects the whole registry) and rejects every flag set
// explicitly that none of the selected experiments reads.
func selectSpecs(fs *flag.FlagSet) ([]experiments.Spec, error) {
	if fs.NArg() == 0 {
		return nil, errors.New("no experiment named")
	}
	var specs []experiments.Spec
	var reads experiments.Input
	seen := map[string]bool{}
	for _, name := range fs.Args() {
		batch := experiments.Registry()
		if name != "all" {
			s, ok := experiments.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (run repro without arguments for the list)", name)
			}
			batch = []experiments.Spec{s}
		}
		for _, s := range batch {
			if !seen[s.Name] {
				seen[s.Name] = true
				specs = append(specs, s)
				reads |= s.Reads
			}
		}
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if in, ok := flagInputs[f.Name]; ok && reads&in == 0 {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return nil, fmt.Errorf("%s: no selected experiment reads it", strings.Join(unread, ", "))
	}
	return specs, nil
}

// validateCounts rejects a negative count flag, and a TSP tour of one or
// two cities, which has no edge to search. 0 means each experiment's
// default.
func validateCounts(procs, iters, searchers, cities, steps int) error {
	for _, c := range []struct {
		name string
		n    int
	}{{"procs", procs}, {"iters", iters}, {"searchers", searchers}, {"cities", cities}, {"steps", steps}} {
		if c.n < 0 {
			return fmt.Errorf("-%s %d: must not be negative", c.name, c.n)
		}
	}
	if cities == 1 || cities == 2 {
		return fmt.Errorf("-cities %d: a tour needs at least 3 cities", cities)
	}
	return nil
}

// lockKinds validates a -lock value.
func lockKinds(name string) ([]locks.Kind, error) {
	for _, k := range locks.KindNames() {
		if k == name {
			return []locks.Kind{locks.Kind(name)}, nil
		}
	}
	return nil, fmt.Errorf("-lock %q: unknown lock kind (valid kinds: %s)", name, strings.Join(locks.KindNames(), ", "))
}

// readTSPLIB reads the -file instance; an unreadable or invalid file is a
// usage error.
func readTSPLIB(path string) (*tsp.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	in, err := tsp.ParseTSPLIB(f)
	if err != nil {
		return nil, fmt.Errorf("-file %s: %w", path, err)
	}
	return in, nil
}
