package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/tsp"
)

// TSPOptions configures the Tables 1–3 / Figures 4–9 experiments.
type TSPOptions struct {
	// Instance, when non-nil, overrides the generated instance (e.g. one
	// parsed from a TSPLIB file).
	Instance *tsp.Instance
	// Cities is the problem size (the paper used 32; the default here is
	// 16 Euclidean cities, which yields a search tree of comparable
	// relative depth at tractable simulation cost).
	Cities int
	Seed   uint64
	// Uniform switches from Euclidean to uniform random instances (much
	// easier for LMSK; mainly for tests).
	Uniform bool
	// Searchers is the number of searcher threads / processors (paper: 10).
	Searchers int
	// StepsPerWorkUnit scales node-expansion cost relative to lock costs.
	StepsPerWorkUnit int
	// Profiler, Ledger and Jobs are read only by TSPComparison, the entry
	// point for callers without an Env; the experiments take all three
	// from Env. Profiler and Ledger attach to the adaptive solve, the run
	// whose feedback loop actually adapts; Jobs fans the solves out.
	Profiler *profile.Profiler
	Ledger   *core.Ledger
	Jobs     int
}

func (o TSPOptions) withDefaults() TSPOptions {
	if o.Cities == 0 {
		o.Cities = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Searchers == 0 {
		o.Searchers = 10
	}
	if o.StepsPerWorkUnit == 0 {
		// A 16-city expansion is ~770 work units; at 60 steps each this is
		// ~11ms of computation per expansion against lock operations of
		// 40–90µs — the same work:lock ratio regime as the paper's
		// 32-city runs on the GP1000 (expansions of milliseconds against
		// tens-of-microsecond locks), where the centralized qlock is
		// heavily contended but not saturated.
		o.StepsPerWorkUnit = 60
	}
	return o
}

// instance builds the configured TSP instance.
func (o TSPOptions) instance() *tsp.Instance {
	if o.Instance != nil {
		return o.Instance
	}
	if o.Uniform {
		return tsp.NewRandomInstance(o.Cities, o.Seed)
	}
	return tsp.NewEuclideanInstance(o.Cities, o.Seed)
}

// TSPRow is one of Tables 1–3: one parallel organization, solved with
// blocking locks and with adaptive locks (plus the sequential baseline for
// the centralized table, as in the paper's Table 1).
type TSPRow struct {
	Org        tsp.Organization
	Sequential sim.Time // 0 unless measured
	Blocking   sim.Time
	Adaptive   sim.Time
	// ImprovementPct is the adaptive lock's gain over blocking.
	ImprovementPct float64
	// Speedup is sequential / blocking (Table 1's 6.5× claim); 0 when the
	// sequential baseline was not run.
	Speedup float64

	BlockingRes tsp.Result
	AdaptiveRes tsp.Result
}

// TSPComparison reproduces one of Tables 1–3: it solves the instance with
// blocking locks and with adaptive locks under the given organization, and
// (for the centralized organization, like the paper's Table 1) also runs
// the sequential baseline. It is tspComparison for callers without an
// Env, taking the observers and fan-out from opts.
func TSPComparison(org tsp.Organization, opts TSPOptions) (TSPRow, error) {
	e := Env{TSP: opts, Jobs: opts.Jobs, Profiler: opts.Profiler, Ledger: opts.Ledger}
	return tspComparison(e, org, org == tsp.OrgCentralized)
}

// tspComparison solves e.TSP's instance under org with blocking and with
// adaptive locks and, when baseline is set, sequentially too. The solves
// are independent simulations, so they fan out over e.Jobs even when e is
// observed: e's observers attach to the adaptive solve alone, the run
// whose feedback loop produces reconfiguration events, and a shared
// collector never sees interleaved timelines.
func tspComparison(e Env, org tsp.Organization, baseline bool) (TSPRow, error) {
	o := e.TSP.withDefaults()
	in := o.instance()
	run := func(kind locks.Kind) (tsp.Result, error) {
		cfg := tsp.Config{
			Instance:         in,
			Searchers:        o.Searchers,
			Org:              org,
			LockKind:         kind,
			StepsPerWorkUnit: o.StepsPerWorkUnit,
		}
		if kind == locks.KindAdaptive {
			cfg.Tracer, cfg.Profiler, cfg.Ledger = e.Tracer, e.Profiler, e.Ledger
		}
		return tsp.Solve(cfg)
	}
	runs := []struct {
		name  string
		solve func() (tsp.Result, error)
	}{
		{"blocking", func() (tsp.Result, error) { return run(locks.KindBlocking) }},
		{"adaptive", func() (tsp.Result, error) { return run(locks.KindAdaptive) }},
		{"sequential", func() (tsp.Result, error) {
			return tsp.SolveSequentialSim(in, sim.Config{}, o.StepsPerWorkUnit)
		}},
	}
	if !baseline {
		runs = runs[:2]
	}
	row := TSPRow{Org: org}
	results, err := sweep(Env{Jobs: e.Jobs}, len(runs), func(i int) (tsp.Result, error) {
		res, err := runs[i].solve()
		if err != nil {
			return res, fmt.Errorf("tsp %s %s: %w", org, runs[i].name, err)
		}
		return res, nil
	})
	if err != nil {
		return row, err
	}
	row.BlockingRes, row.AdaptiveRes = results[0], results[1]
	if row.BlockingRes.Tour.Cost != row.AdaptiveRes.Tour.Cost {
		return row, fmt.Errorf("tsp %s: blocking found %d, adaptive %d — both must be optimal",
			org, row.BlockingRes.Tour.Cost, row.AdaptiveRes.Tour.Cost)
	}
	row.Blocking = row.BlockingRes.Elapsed
	row.Adaptive = row.AdaptiveRes.Elapsed
	row.ImprovementPct = 100 * float64(row.Blocking-row.Adaptive) / float64(row.Blocking)
	if baseline {
		seq := results[2]
		if seq.Tour.Cost != row.BlockingRes.Tour.Cost {
			return row, fmt.Errorf("tsp: sequential found %d, parallel %d", seq.Tour.Cost, row.BlockingRes.Tour.Cost)
		}
		row.Sequential = seq.Elapsed
		row.Speedup = float64(row.Sequential) / float64(row.Blocking)
	}
	return row, nil
}

// PatternFigure identifies one of Figures 4–9 by organization and lock.
type PatternFigure struct {
	Figure int
	Org    tsp.Organization
	Lock   string
	Series *metrics.Series
}

// LockPatterns reproduces Figures 4–9: the waiting-thread pattern of qlock
// and glob-act-lock for each of the three organizations, measured on the
// blocking-lock runs (patterns are a property of the program structure,
// observed per lock request) of e.TSP's instance.
func LockPatterns(e Env) ([]PatternFigure, error) {
	opts := e.TSP.withDefaults()
	figs := []PatternFigure{
		{Figure: 4, Org: tsp.OrgCentralized, Lock: tsp.LockQueue},
		{Figure: 5, Org: tsp.OrgCentralized, Lock: tsp.LockActive},
		{Figure: 6, Org: tsp.OrgDistributed, Lock: tsp.LockQueue},
		{Figure: 7, Org: tsp.OrgDistributed, Lock: tsp.LockActive},
		{Figure: 8, Org: tsp.OrgDistributedLB, Lock: tsp.LockQueue},
		{Figure: 9, Org: tsp.OrgDistributedLB, Lock: tsp.LockActive},
	}
	in := opts.instance()
	orgs := []tsp.Organization{tsp.OrgCentralized, tsp.OrgDistributed, tsp.OrgDistributedLB}
	solved, err := sweep(e, len(orgs), func(i int) (tsp.Result, error) {
		res, err := tsp.Solve(tsp.Config{
			Instance:         in,
			Searchers:        opts.Searchers,
			Org:              orgs[i],
			LockKind:         locks.KindBlocking,
			StepsPerWorkUnit: opts.StepsPerWorkUnit,
			RecordPatterns:   true,
		})
		if err != nil {
			return res, fmt.Errorf("patterns %s: %w", orgs[i], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	byOrg := map[tsp.Organization]tsp.Result{}
	for i, org := range orgs {
		byOrg[org] = solved[i]
	}
	for i := range figs {
		res := byOrg[figs[i].Org]
		s, ok := res.Patterns[figs[i].Lock]
		if !ok || s == nil {
			return nil, fmt.Errorf("patterns: no series for %s in %s", figs[i].Lock, figs[i].Org)
		}
		figs[i].Series = s
	}
	return figs, nil
}

// ScalingRow is the adaptive-over-blocking improvement at one machine
// size.
type ScalingRow struct {
	Searchers      int
	Blocking       sim.Time
	Adaptive       sim.Time
	ImprovementPct float64
}

// ScalingComparison tests the paper's §4 prediction: "For massively
// parallel applications we expect the gain to be even higher because the
// effect of blocking vs. spinning ... is more pronounced." It runs the
// centralized TSP implementation on e.TSP's instance at growing processor
// counts and reports the adaptive lock's improvement at each; no row
// solves the sequential baseline.
func ScalingComparison(e Env, searcherCounts []int) ([]ScalingRow, error) {
	if len(searcherCounts) == 0 {
		searcherCounts = []int{4, 8, 16, 24}
	}
	return sweep(e, len(searcherCounts), func(i int) (ScalingRow, error) {
		o := e
		o.TSP.Searchers = searcherCounts[i]
		row, err := tspComparison(o, tsp.OrgCentralized, false)
		if err != nil {
			return ScalingRow{}, fmt.Errorf("scaling %d searchers: %w", searcherCounts[i], err)
		}
		return ScalingRow{
			Searchers:      searcherCounts[i],
			Blocking:       row.Blocking,
			Adaptive:       row.Adaptive,
			ImprovementPct: row.ImprovementPct,
		}, nil
	})
}
