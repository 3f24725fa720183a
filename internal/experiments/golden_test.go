package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/trace"
)

var (
	update   = flag.Bool("update", false, "rewrite testdata/golden from the current experiments")
	allModes = flag.Bool("all-modes", false, "run TestGolden in every serial engine mode, not only the default one")
)

// TestGolden pins every registered experiment's full default output,
// byte for byte, to testdata/golden/<name>.txt, and what the observers
// write on a fixed list of runs to testdata/golden/observed.sum (see
// observedRuns). Regenerate after an intended output change with
//
//	go test ./internal/experiments -run TestGolden -update
//
// With -all-modes every golden must also come out of the three other
// serial engine modes (inline wakeups and batched spins each off), set
// as process defaults so that the engines experiments build themselves
// — tsp.Solve's and ShardedRun's included — take them too:
//
//	go test ./internal/experiments -run '^TestGolden$' -all-modes
func TestGolden(t *testing.T) {
	if !*allModes {
		checkGoldens(t)
		return
	}
	for _, m := range simtest.Serial() {
		t.Run(m.String(), func(t *testing.T) {
			defer useDefaultMode(m)()
			checkGoldens(t)
		})
	}
}

// useDefaultMode makes m's fast paths the process default for the
// engines built from now on; the returned func restores the defaults.
func useDefaultMode(m simtest.Mode) (restore func()) {
	sim.SetDefaultInlineWakeups(m.Inline)
	sim.SetDefaultBatchedSpins(m.Batched)
	return func() {
		sim.SetDefaultInlineWakeups(true)
		sim.SetDefaultBatchedSpins(true)
	}
}

// checkGoldens compares every registered experiment's output with its
// golden file, one subtest per experiment, and fails on a golden file no
// registered experiment owns, such as a removed experiment's.
func checkGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if _, ok := Lookup(strings.TrimSuffix(filepath.Base(path), ".txt")); !ok {
			t.Errorf("%s belongs to no registered experiment", path)
		}
	}
	for _, spec := range Registry() {
		t.Run(spec.Name, func(t *testing.T) {
			res, err := spec.Run(Env{Jobs: runtime.GOMAXPROCS(0)})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Text
			path := filepath.Join("testdata", "golden", spec.Name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
					spec.Name, path, got, want)
			}
		})
	}
	t.Run("observed", checkObserved)
}

// observedRun is one repro run with observers attached, as its command
// line would set them up: a tracer (-trace, Chrome JSON or text by
// extension), the profiler and ledger (-profile-vt, -ledger) or a CSV
// directory (-csvdir), writing into one directory.
type observedRun struct {
	name    string   // the run's directory in observed.sum
	specs   []string // the experiments it runs, in order
	trace   string   // -trace file name, "" for none
	profile string   // -profile-vt file name, "" for none
	ledger  string   // -ledger file name, "" for none
	csv     bool     // -csvdir
}

// observedRuns are the runs whose exports observed.sum pins: every
// exporter, on runs that reach the lock, TSP and feedback layers. A
// Chrome trace of table1 is about 19 MB, so the golden holds each
// file's SHA-256 and length, not its bytes.
var observedRuns = []observedRun{
	{name: "trace-table1", specs: []string{"table1"}, trace: "t.json"},
	{name: "trace-coupling", specs: []string{"coupling"}, trace: "t.txt"},
	{name: "observe-feedback", specs: []string{"feedback"}, profile: "p.folded", ledger: "l.json"},
	{name: "csv-tables", specs: []string{"table1", "table2", "table3"}, csv: true},
}

// checkObserved runs observedRuns and compares a digest line per
// exported file — run/file, byte length, SHA-256 — with
// testdata/golden/observed.sum. The text of each traced or profiled run
// must also equal its experiments' plain goldens: observers are passive.
// (-csvdir adds a line naming each file it writes.)
func checkObserved(t *testing.T) {
	var sum strings.Builder
	for _, r := range observedRuns {
		dir := t.TempDir()
		tf := &cli.Trace{Capacity: trace.DefaultCapacity}
		obs := &cli.Observe{}
		if r.trace != "" {
			tf.Path = filepath.Join(dir, r.trace)
		}
		if r.profile != "" {
			obs.ProfilePath = filepath.Join(dir, r.profile)
		}
		if r.ledger != "" {
			obs.LedgerPath = filepath.Join(dir, r.ledger)
		}
		env := Env{Jobs: runtime.GOMAXPROCS(0), Tracer: tf.Tracer(), Profiler: obs.Profiler(), Ledger: obs.Ledger()}
		if r.csv {
			env.CSVDir = dir
		}
		for _, name := range r.specs {
			spec, _ := Lookup(name)
			res, err := spec.Run(env.Restrict(spec.Reads))
			if err != nil {
				t.Fatalf("%s: %s: %v", r.name, name, err)
			}
			if r.csv {
				continue
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if res.Text != string(want) {
				t.Errorf("%s: %s output differs from its plain golden: an observer changed the run", r.name, name)
			}
		}
		if err := tf.Flush(env.Tracer, nil); err != nil {
			t.Fatal(err)
		}
		if err := obs.Flush(); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sum, "%s/%s %d %x\n", r.name, f.Name(), len(b), sha256.Sum256(b))
		}
	}
	path := filepath.Join("testdata", "golden", "observed.sum")
	if *update {
		if err := os.WriteFile(path, []byte(sum.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.String(); got != string(want) {
		t.Errorf("observer exports differ from %s (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
