package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArgValidation drives the command's argument checks end to end: each
// case is rejected with exit status 2 before any experiment runs, or (exit
// 0) accepted and run. The accepted cases pick fast experiments.
func TestArgValidation(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
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
		{"csvdir without patterns", []string{"-csvdir", dir, "table1"}, 2, "-csvdir: no selected experiment reads it"},
		{"lock with only table6", []string{"-lock", "spin", "table6"}, 2, "-lock: no selected experiment reads it"},
		{"unknown lock kind", []string{"-lock", "nosuch", "table4"}, 2, `-lock "nosuch": unknown lock kind`},
		{"shards with a serial experiment", []string{"-shards", "2", "table8"}, 2, "-shards: no selected experiment reads it"},
		{"explicit shards 1 with a serial experiment", []string{"-shards", "1", "table8"}, 2, "-shards: no selected experiment reads it"},
		{"shards below 1", []string{"-shards", "0", "sharded"}, 2, "-shards must be at least 1"},
		{"tsp flag with lock tables", []string{"-cities", "8", "table4"}, 2, "-cities: no selected experiment reads it"},
		{"procs with figure 1", []string{"-procs", "4", "fig1"}, 2, "-procs: no selected experiment reads it"},
		{"trace with figure 1", []string{"-trace", out("f.json"), "fig1"}, 2, "-trace: no selected experiment reads it"},
		{"observer with the monitor demo", []string{"-ledger", out("l.txt"), "monitor"}, 2, "-ledger: no selected experiment reads it"},
		{"every unread flag listed", []string{"-iters", "3", "-uniform", "sched"}, 2, "-iters, -uniform: no selected experiment reads it"},

		// The shards × observer matrix: an observer records one serial
		// timeline, so -shards > 1 beside any of them is rejected.
		{"shards 2 with trace", []string{"-shards", "2", "-trace", out("s.json"), "sharded", "feedback"}, 2, "cannot be combined with -trace"},
		{"shards 2 with profile-vt", []string{"-shards", "2", "-profile-vt", out("s.prof"), "sharded", "feedback"}, 2, "cannot be combined with -profile-vt/-ledger"},
		{"shards 2 with ledger", []string{"-shards", "2", "-ledger", out("s.ledger"), "sharded", "feedback"}, 2, "cannot be combined with -profile-vt/-ledger"},
		{"serial engine with trace", []string{"-trace", out("t.json"), "table8"}, 0, ""},
		{"serial engine with profile-vt", []string{"-profile-vt", out("t.prof"), "table8"}, 0, ""},
		{"serial engine with ledger", []string{"-ledger", out("t.ledger"), "table8"}, 0, ""},

		{"flag read by one of several selected", []string{"-lock", "spin", "table4", "table6"}, 0, ""},
		{"shards with the sharded sweep", []string{"-shards", "2", "sharded"}, 0, ""},
		{"csvdir with patterns", []string{"-cities", "7", "-searchers", "3", "-csvdir", dir, "patterns"}, 0, ""},
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
	for _, name := range []string{"t.json", "t.prof", "t.ledger", "figure4_centralized_qlock.csv"} {
		if fi, err := os.Stat(out(name)); err != nil || fi.Size() == 0 {
			t.Errorf("accepted run left no %s (%v)", name, err)
		}
	}
	for _, name := range []string{"f.json", "l.txt", "s.json", "s.prof", "s.ledger"} {
		if _, err := os.Stat(out(name)); err == nil {
			t.Errorf("rejected run wrote %s", name)
		}
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

// TestInputsReachOnlyTheirReaders checks that an input set for one
// selected experiment does not leak into another: the tracer is read by
// table8, and coupling, which can run traced but does not declare it,
// must neither appear in the trace nor change its golden output.
func TestInputsReachOnlyTheirReaders(t *testing.T) {
	want, err := os.ReadFile("../../internal/experiments/testdata/golden/coupling.txt")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.txt")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", path, "table8", "coupling"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasSuffix(stdout.String(), string(want)) {
		t.Errorf("coupling output changed beside -trace:\n%s", stdout.String())
	}
	tr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(tr), "loose") {
		t.Error("the trace recorded the coupling experiment, which does not read -trace")
	}
}
