package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

var (
	update   = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the current experiments")
	allModes = flag.Bool("all-modes", false, "run TestGolden in every serial engine mode, not only the default one")
)

// TestGolden pins every registered experiment's full default output,
// byte for byte, to testdata/golden/<name>.txt. Regenerate after an
// intended output change with
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
}
