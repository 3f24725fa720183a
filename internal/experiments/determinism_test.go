package experiments

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tsp"
)

// renderTSP runs one traced TSP comparison and returns the trace exports
// plus a rendering of every metric the comparison computes — the full
// observable output of one seeded experiment.
func renderTSP(t *testing.T, seed uint64) (chrome, text, metricsOut string) {
	t.Helper()
	tr := trace.New(1 << 20)
	row, err := tspComparison(Env{
		TSP:    TSPOptions{Cities: 8, Seed: seed, Searchers: 4},
		Tracer: tr,
	}, tsp.OrgCentralized, true, false)
	if err != nil {
		t.Fatal(err)
	}
	var cj, tx bytes.Buffer
	if err := tr.WriteChrome(&cj); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteText(&tx); err != nil {
		t.Fatal(err)
	}
	m := fmt.Sprintf("%v|%v|%v|%d|%d|%d|%v|%v",
		row.Blocking, row.Adaptive, row.Sequential,
		row.BlockingRes.Expansions, row.AdaptiveRes.Expansions,
		row.BlockingRes.Tour.Cost,
		row.BlockingRes.LockStats[tsp.LockQueue], row.AdaptiveRes.FinalSpin)
	m += "\n" + trace.RenderContention(tr.ContentionProfile())
	m += trace.RenderLag(tr.AdaptationLag())
	return cj.String(), tx.String(), m
}

// TestTSPDeterminism is the regression gate for the repo's reproducibility
// claim: the same seed must produce byte-identical trace output and
// identical metrics, run to run. Any wall-clock, map-iteration, or
// scheduling nondeterminism leaking into the simulation or the tracer
// breaks this test.
func TestTSPDeterminism(t *testing.T) {
	c1, t1, m1 := renderTSP(t, 3)
	c2, t2, m2 := renderTSP(t, 3)
	if c1 != c2 {
		t.Error("Chrome trace differs between identical seeded runs")
	}
	if t1 != t2 {
		t.Error("text trace differs between identical seeded runs")
	}
	if m1 != m2 {
		t.Errorf("metrics differ between identical seeded runs:\n%s\n--- vs ---\n%s", m1, m2)
	}
	if len(c1) == 0 || len(t1) == 0 {
		t.Error("empty trace output")
	}
	// A different seed must actually change the experiment (guards
	// against the outputs being trivially constant).
	_, _, m3 := renderTSP(t, 4)
	if m1 == m3 {
		t.Error("different seeds produced identical metrics — seed not plumbed through")
	}
}

// renderSweeps runs a cross-section of sweep experiments at the given
// fan-out and renders every row — the full observable output. The sweep
// runner collects results in input order, so this must be byte-identical
// for every jobs value.
func renderSweeps(t *testing.T, jobs int) string {
	t.Helper()
	var out bytes.Buffer

	fig1, err := Figure1(Env{Jobs: jobs}, []sim.Time{10 * sim.Microsecond, 500 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&out, RenderFigure1(fig1))

	abl, err := PolicyAblation(Env{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&out, RenderAblation(abl))

	row, err := TSPComparison(tsp.OrgCentralized, TSPOptions{
		Cities: 8, Seed: 5, Searchers: 4, Jobs: jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&out, RenderTSPRow(row))
	fmt.Fprintf(&out, "%v|%v|%v|%d|%d|%v\n",
		row.Blocking, row.Adaptive, row.Sequential,
		row.BlockingRes.Expansions, row.AdaptiveRes.Expansions, row.AdaptiveRes.FinalSpin)

	bar, err := BarrierComparison(Env{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&out, RenderBarriers(bar))
	return out.String()
}

// TestSweepParallelDeterminism is the regression gate for the parallel
// sweep runner: running the sweeps with -j 8 must produce byte-identical
// output to the serial -j 1 path. Each configuration owns its engine and
// RNG and results are collected in input order, so any divergence means
// shared mutable state leaked between concurrent simulations.
func TestSweepParallelDeterminism(t *testing.T) {
	serial := renderSweeps(t, 1)
	parallel := renderSweeps(t, 8)
	if serial != parallel {
		t.Errorf("sweep output with -j 8 differs from -j 1:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Error("empty sweep output")
	}
}

// renderObservedSweep runs Table4 and Figure1 with a profiler and ledger
// attached at the given fan-out and renders every observable byte: the
// experiment rows plus the full profiler and ledger exports.
func renderObservedSweep(t *testing.T, jobs int) string {
	t.Helper()
	prof := profile.New()
	led := core.NewLedger(core.DefaultLedgerCapacity)
	var out bytes.Buffer

	rows, err := Table4(Env{Iters: 3, Jobs: jobs, Profiler: prof, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&out, RenderLockOpTable("Table 4", rows))

	fig1, err := Figure1(Env{Jobs: jobs, Profiler: prof, Ledger: led},
		[]sim.Time{10 * sim.Microsecond, 200 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&out, RenderFigure1(fig1))

	for _, write := range []func(io.Writer) error{
		prof.WriteFolded, prof.WriteTable, prof.WriteHistograms,
		led.WriteJSON, led.WriteReport,
	} {
		if err := write(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}

// TestObservedSweepParallelDeterminism is the byte-identity gate for the
// observability layer under sweep parallelism: a shared profiler and
// ledger force the sweep runner serial, so -j 8 must produce exports
// byte-identical to -j 1. A divergence means either the serial forcing
// regressed (collectors raced) or an export leaked ordering
// nondeterminism.
func TestObservedSweepParallelDeterminism(t *testing.T) {
	serial := renderObservedSweep(t, 1)
	parallel := renderObservedSweep(t, 8)
	if serial != parallel {
		t.Error("observed sweep output with -j 8 differs from -j 1")
	}
	if len(serial) == 0 {
		t.Error("empty observed sweep output")
	}
}

// TestCouplingTraceDeterminism covers the loosely-coupled monitor pipeline
// path (monitor records, deliveries, and pipeline-lagged samples) with the
// same byte-identity requirement.
func TestCouplingTraceDeterminism(t *testing.T) {
	render := func() (string, string) {
		tr := trace.New(1 << 20)
		rows, err := CouplingComparison(Env{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		var tx bytes.Buffer
		if err := tr.WriteText(&tx); err != nil {
			t.Fatal(err)
		}
		return tx.String(), fmt.Sprintf("%+v", rows)
	}
	tr1, rows1 := render()
	tr2, rows2 := render()
	if tr1 != tr2 {
		t.Error("coupling trace differs between identical runs")
	}
	if rows1 != rows2 {
		t.Error("coupling rows differ between identical runs")
	}
	// The loose pipeline's trace-derived decision lag must be visibly
	// larger than the inline loop's — the §5.1 claim, read off the trace.
	tr := trace.New(1 << 20)
	if _, err := CouplingComparison(Env{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	lags := map[string]trace.LagProfile{}
	for _, p := range tr.AdaptationLag() {
		lags[p.Object] = p
	}
	tight, loose := lags["tight"], lags["loose"]
	if tight.Reconfigs == 0 || loose.Reconfigs == 0 {
		t.Fatalf("expected reconfigurations on both loops (tight=%d loose=%d)",
			tight.Reconfigs, loose.Reconfigs)
	}
	if loose.MeanLag() <= tight.MeanLag() {
		t.Errorf("loose pipeline lag (%v) not above inline lag (%v)",
			loose.MeanLag(), tight.MeanLag())
	}
}
