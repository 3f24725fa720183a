package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestArgValidation drives the command's argument checks end to end: each
// case is rejected with exit status 2 before any experiment runs, or (exit
// 0) accepted and run. The accepted cases pick fast experiments.
func TestArgValidation(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	negative := out("negative.tsp")
	if err := os.WriteFile(negative, []byte("DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n"+
		"EDGE_WEIGHT_SECTION\n0 4 -7\n4 0 3\n-7 3 0\nEOF\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		code int
		// stderr, when set, must appear in the error output.
		stderr string
	}{
		{"no name", nil, 2, "no experiment named"},
		{"unknown name", []string{"table9"}, 2, `unknown experiment "table9"`},
		{"unknown name beside a known one", []string{"table9", "calib"}, 2, `unknown experiment "table9"`},
		{"unknown flag", []string{"-table", "4"}, 2, "flag provided but not defined"},
		{"retired patterns experiment", []string{"patterns"}, 2, `unknown experiment "patterns"`},
		{"csvdir with only table4", []string{"-csvdir", dir, "table4"}, 2, "-csvdir: no selected experiment reads it"},
		{"lock with only table6", []string{"-lock", "spin", "table6"}, 2, "-lock: no selected experiment reads it"},
		{"unknown lock kind", []string{"-lock", "nosuch", "table4"}, 2, `-lock "nosuch": unknown lock kind`},
		{"shards with the sharded sweep", []string{"-shards", "2", "sharded"}, 2, "flag provided but not defined"},
		{"tsp flag with lock tables", []string{"-cities", "8", "table4"}, 2, "-cities: no selected experiment reads it"},
		{"procs with figure 1", []string{"-procs", "4", "fig1"}, 2, "-procs: no selected experiment reads it"},
		{"trace with figure 1", []string{"-trace", out("f.json"), "fig1"}, 2, "-trace: no selected experiment reads it"},
		{"observer with the monitor demo", []string{"-ledger", out("l.txt"), "monitor"}, 2, "-ledger: no selected experiment reads it"},
		{"every unread flag listed", []string{"-iters", "3", "-uniform", "sched"}, 2, "-iters, -uniform: no selected experiment reads it"},
		{"one city", []string{"-cities", "1", "table1"}, 2, "-cities 1: a tour needs at least 3 cities"},
		{"two cities", []string{"-cities", "2", "table1"}, 2, "-cities 2: a tour needs at least 3 cities"},
		{"negative procs", []string{"-procs", "-2", "feedback"}, 2, "-procs -2: must not be negative"},
		{"negative procs with a lock table", []string{"-procs", "-2", "table4"}, 2, "-procs -2: must not be negative"},
		{"negative searchers", []string{"-searchers", "-1", "table1"}, 2, "-searchers -1: must not be negative"},
		{"negative cities", []string{"-cities", "-4", "table1"}, 2, "-cities -4: must not be negative"},
		{"negative iters", []string{"-iters", "-3", "table4"}, 2, "-iters -3: must not be negative"},
		{"negative steps", []string{"-steps", "-5", "table1"}, 2, "-steps -5: must not be negative"},
		{"file with a negative weight", []string{"-file", negative, "table1"}, 2, "weight -7 at (1,3) is outside [0, 2147483647)"},

		{"serial engine with trace", []string{"-trace", out("t.json"), "table8"}, 0, ""},
		{"serial engine with profile-vt", []string{"-profile-vt", out("t.prof"), "table8"}, 0, ""},
		{"serial engine with ledger", []string{"-ledger", out("t.ledger"), "table8"}, 0, ""},

		{"flag read by one of several selected", []string{"-lock", "spin", "table4", "table6"}, 0, ""},
		{"trace with coupling", []string{"-trace", out("c.json"), "coupling"}, 0, ""},
		{"ledger with coupling", []string{"-ledger", out("c.ledger.json"), "coupling"}, 0, ""},
		{"csvdir with table1", []string{"-cities", "7", "-searchers", "3", "-csvdir", dir, "table1"}, 0, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("run(%q) = %d, want %d; stderr:\n%s", c.args, code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("run(%q) stderr missing %q:\n%s", c.args, c.stderr, stderr.String())
			}
			if c.code == 2 && stdout.Len() > 0 {
				t.Errorf("run(%q) was rejected but printed:\n%s", c.args, stdout.String())
			}
			if c.code == 0 && stdout.Len() == 0 {
				t.Errorf("run(%q) printed nothing", c.args)
			}
		})
	}
	for _, name := range []string{"t.json", "t.prof", "t.ledger",
		"figure4_centralized_qlock.csv", "figure5_centralized_glob-act-lock.csv"} {
		if fi, err := os.Stat(out(name)); err != nil || fi.Size() == 0 {
			t.Errorf("accepted run left no %s (%v)", name, err)
		}
	}
	for _, name := range []string{"f.json", "l.txt"} {
		if _, err := os.Stat(out(name)); err == nil {
			t.Errorf("rejected run wrote %s", name)
		}
	}
	// The loosely coupled loop's monitor thread emits the samples it
	// feeds its policy; the traced coupling run must have recorded them.
	if tr, err := os.ReadFile(out("c.json")); err != nil || !strings.Contains(string(tr), `"sample loose=`) {
		t.Errorf("traced coupling run left no loose sample in c.json (%v)", err)
	}
	// The same loop's monitor pipeline records each delivery, with its
	// collection-to-delivery lag, in the ledger.
	var ledger struct{ Entries []core.Entry }
	if raw, err := os.ReadFile(out("c.ledger.json")); err != nil {
		t.Error(err)
	} else if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Error(err)
	}
	if !slices.ContainsFunc(ledger.Entries, func(e core.Entry) bool { return e.Kind == core.EntryDeliver && e.Lag > 0 }) {
		t.Errorf("coupling ledger holds no deliver entry with a positive lag among its %d entries", len(ledger.Entries))
	}
}

// TestRepeatedNameRunsOnce checks that a name given twice runs once.
func TestRepeatedNameRunsOnce(t *testing.T) {
	var a, b bytes.Buffer
	if code := run([]string{"table8", "table8"}, &a, &b); code != 0 {
		t.Fatalf("exit %d: %s", code, b.String())
	}
	if n := strings.Count(a.String(), "Table 8:"); n != 1 {
		t.Errorf("table8 table8 printed Table 8 %d times", n)
	}
}

// TestInputsReachOnlyTheirReaders checks that an input reaches every
// selected experiment that reads it: table8, feedback and coupling all
// read -trace, so the trace holds each one's locks, and tracing leaves
// coupling's output at its golden. That no unread input reaches an
// experiment is TestRestrict's, in internal/experiments: no registered
// experiment can show a leaked input in its output.
func TestInputsReachOnlyTheirReaders(t *testing.T) {
	want, err := os.ReadFile("../../internal/experiments/testdata/golden/coupling.txt")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.txt")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", path, "table8", "feedback", "coupling"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasSuffix(stdout.String(), string(want)) {
		t.Errorf("coupling output changed beside -trace:\n%s", stdout.String())
	}
	tr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, lock := range []string{" cfg ", " demo-lock ", " loose "} {
		if !strings.Contains(string(tr), lock) {
			t.Errorf("the trace holds no event of lock%s", lock)
		}
	}
}
