package analysis

import (
	"testing"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/framework/analysistest"
)

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata", "walltime/sim", Walltime)
	analysistest.Run(t, "testdata", "walltime/notsim", Walltime)
}

func TestRawspin(t *testing.T) {
	analysistest.Run(t, "testdata", "rawspin/sim", Rawspin)
	analysistest.Run(t, "testdata", "rawspin/notsim", Rawspin)
	analysistest.Run(t, "testdata", "rawspin/locks", Rawspin)
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata", "maporder/a", Maporder)
}

func TestVirtualtime(t *testing.T) {
	analysistest.Run(t, "testdata", "virtualtime/sim", Virtualtime)
	analysistest.Run(t, "testdata", "virtualtime/locks", Virtualtime)
}

func TestSeqadvance(t *testing.T) {
	analysistest.Run(t, "testdata", "seqadvance/sim", Seqadvance)
}

func TestCrossshard(t *testing.T) {
	analysistest.Run(t, "testdata", "crossshard/sim", Crossshard)
	analysistest.Run(t, "testdata", "crossshard/cthreads", Crossshard)
}

func TestFramebalance(t *testing.T) {
	analysistest.Run(t, "testdata", "framebalance/a", Framebalance)
	analysistest.Run(t, "testdata", "framebalance/combiner", Framebalance)
}

func TestLockpair(t *testing.T) {
	analysistest.Run(t, "testdata", "lockpair/a", Lockpair)
	analysistest.Run(t, "testdata", "lockpair/locks", Lockpair)
}

// TestAllowsAudit drives the -allows classification over a fixture
// seeded with one live, one stale, and two malformed directives: stale
// detection is the audit's whole point, so it is proven here rather
// than assumed.
func TestAllowsAudit(t *testing.T) {
	pkg := analysistest.Load(t, "testdata", "allows/a")
	allows, err := framework.AuditAllows(pkg, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(allows) != 4 {
		t.Fatalf("got %d directives, want 4: %+v", len(allows), allows)
	}
	type verdict struct {
		analyzer, malformed string
		stale               bool
	}
	got := make([]verdict, len(allows))
	for i, a := range allows {
		got[i] = verdict{a.Analyzer, a.Malformed, a.Stale}
	}
	want := []verdict{
		{"framebalance", "", false}, // live suppression of the early-return leak
		{"framebalance", "", true},  // stale: balanced body, nothing reported
		{"nosuchanalyzer", `unknown analyzer "nosuchanalyzer"`, false},
		{"framebalance", `missing mandatory reason ("-- <why>")`, false},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("directive %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSimlintClean runs the full suite over the module the way
// `go vet -vettool=bin/simlint ./...` does: the tree must stay clean,
// and every suppression must be well-formed (malformed directives are
// diagnostics themselves).
func TestSimlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the whole module")
	}
	pkgs, err := framework.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := framework.RunAnalyzers(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", framework.Format(pkg.Fset, d))
		}
	}
}
