package main

import (
	"container/heap"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/locks"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/tsp"
	"repro/internal/workload"
)

// spec is one benchmark workload: the number of closed-loop clients that
// drive it and how its requests are built from the seed.
type spec struct {
	name    string
	clients int
	// observesAll says the entry point takes a profiler for every solve a
	// request runs (not only some of them, or none).
	observesAll bool
	// build makes the requests of one rep and the fingerprint the oracle
	// expects from each. It is the set-up the benchmark times, so it
	// includes any reference or warm-up pass the oracle needs.
	build func(seed uint64, clients int) ([]request, error)
}

// request is one unit of closed-loop work: one call into a public entry
// point of the simulator.
type request struct {
	label string
	want  string
	// run executes the request. A non-nil obs asks for a traced execution:
	// fresh observers are attached wherever the entry point accepts them
	// and the request's counters are added to obs.
	run func(obs *counters) (outcome, error)
}

// outcome is what the oracle and the spans need from one request.
type outcome struct {
	fingerprint string
	simElapsed  sim.Time
}

// specs is the benchmark's workload table, in report order.
func specs() []spec {
	return []spec{
		tspTables(defaultTSP),
		fig1Multiprog(defaultFig1),
		shardedRing(defaultSharded),
		monitorHotspot(defaultMonitor),
	}
}

func specByName(name string) (spec, bool) {
	for _, s := range specs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// machineSeed derives the simulated machine's seed from the benchmark
// seed, so that seeds 0 and 1 (which sim.Config maps to the same machine)
// still give different inputs.
func machineSeed(seed uint64) uint64 { return sim.NewRNG(seed).Uint64() }

// tspConfig sizes the tsp-tables workload. Raw instance seeds range from
// tens to hundreds of thousands of serial expansions, so a raw seed would
// change the workload's size. Instead count instances are accepted, in
// seed-stream order, each with a tsp.SolveSerial expansion count inside
// band and together inside total.
type tspConfig struct {
	cities    int
	searchers int
	count     int
	band      [2]int
	total     [2]int
	orgs      []tsp.Organization
}

var defaultTSP = tspConfig{
	cities:    16,
	searchers: 10,
	count:     8,
	band:      [2]int{1500, 3000},
	total:     [2]int{17000, 18000},
	orgs:      []tsp.Organization{tsp.OrgCentralized, tsp.OrgDistributed, tsp.OrgDistributedLB},
}

// maxCandidates bounds the instance scan. About one 16-city instance in
// twelve falls in the default band, so hitting it means the band is
// misconfigured.
const maxCandidates = 5000

// tspInstance is one accepted instance with its serial reference solve.
type tspInstance struct {
	in     *tsp.Instance
	serial tsp.SerialResult
}

// selectInstances scans the instance seeds drawn from the benchmark
// seed's stream. A candidate is accepted when its expansion count is in
// the band and instances from the middle third of the band can still
// bring the total into range. Planning with the middle third keeps the
// window left for the last instance at least a third of the band wide, so
// no seed has to scan for an instance of one exact size.
func (c tspConfig) selectInstances(seed uint64) ([]tspInstance, error) {
	rng := sim.NewRNG(seed)
	third := (c.band[1] - c.band[0]) / 3
	lo, hi := c.band[0]+third, c.band[1]-third
	var picked []tspInstance
	total := 0
	for n := 0; len(picked) < c.count; n++ {
		if n == maxCandidates {
			return nil, fmt.Errorf("tsp-tables: %d candidates gave only %d of %d instances", n, len(picked), c.count)
		}
		in := tsp.NewEuclideanInstance(c.cities, rng.Uint64())
		e, ok := serialExpansions(in, c.band[1])
		rest := c.count - len(picked) - 1
		if !ok || e < c.band[0] || total+e+rest*lo > c.total[1] || total+e+rest*hi < c.total[0] {
			continue
		}
		ser := tsp.SolveSerial(in)
		if ser.Expansions != e {
			return nil, fmt.Errorf("tsp-tables: instance %x: SolveSerial took %d expansions, the bounded replay %d", in.Seed, ser.Expansions, e)
		}
		picked = append(picked, tspInstance{in: in, serial: ser})
		total += e
	}
	return picked, nil
}

// serialExpansions replays tsp.SolveSerial's best-first search (lowest
// bound first, ties by insertion order) and returns its expansion count,
// giving up with ok false past budget expansions. The scan needs it
// because a few instances take seconds and hundreds of megabytes to
// solve; SolveSerial itself runs only on accepted instances, as the
// oracle, and must agree with the count.
func serialExpansions(in *tsp.Instance, budget int) (n int, ok bool) {
	q := &nodeQueue{}
	heap.Push(q, tsp.NewRoot(in))
	best := tsp.Inf
	for ; q.Len() > 0 && q.ns[0].Bound < best; n++ {
		if n == budget {
			return n, false
		}
		out := heap.Pop(q).(*tsp.Node).Expand()
		if out.Tour != nil && out.Tour.Cost < best {
			best = out.Tour.Cost
		}
		for _, ch := range out.Children {
			if ch.Bound < best {
				heap.Push(q, ch)
			}
		}
	}
	return n, true
}

// nodeQueue orders subproblems as tsp.SolveSerial's queue does.
type nodeQueue struct {
	ns  []*tsp.Node
	seq uint64
}

func (q *nodeQueue) Len() int { return len(q.ns) }
func (q *nodeQueue) Less(i, j int) bool {
	if q.ns[i].Bound != q.ns[j].Bound {
		return q.ns[i].Bound < q.ns[j].Bound
	}
	return q.ns[i].Seq < q.ns[j].Seq
}
func (q *nodeQueue) Swap(i, j int) { q.ns[i], q.ns[j] = q.ns[j], q.ns[i] }
func (q *nodeQueue) Push(x any) {
	q.seq++
	x.(*tsp.Node).Seq = q.seq
	q.ns = append(q.ns, x.(*tsp.Node))
}
func (q *nodeQueue) Pop() any {
	last := len(q.ns) - 1
	n := q.ns[last]
	q.ns[last] = nil
	q.ns = q.ns[:last]
	return n
}

// tspTables: one request is one experiments.TSPComparison row (Tables 1-3)
// on one selected instance; the oracle is the serial optimum.
func tspTables(c tspConfig) spec {
	return spec{name: "tsp-tables", clients: 1, build: func(seed uint64, _ int) ([]request, error) {
		picked, err := c.selectInstances(seed)
		if err != nil {
			return nil, err
		}
		var reqs []request
		for _, p := range picked {
			for _, org := range c.orgs {
				in := p.in
				reqs = append(reqs, request{
					label: fmt.Sprintf("%s/%016x", org, in.Seed),
					want:  fmt.Sprintf("cost=%d", p.serial.Tour.Cost),
					run: func(obs *counters) (outcome, error) {
						opts := experiments.TSPOptions{Instance: in, Searchers: c.searchers, Jobs: runtime.GOMAXPROCS(0)}
						if obs != nil {
							opts.Profiler, opts.Ledger = profile.New(), core.NewLedger(ledgerCapacity)
						}
						row, err := experiments.TSPComparison(org, opts)
						if err != nil {
							return outcome{}, err
						}
						if obs != nil {
							obs.addObservers(opts.Profiler, opts.Ledger)
							obs.addTSP(row.BlockingRes, false)
							obs.addTSP(row.AdaptiveRes, true)
						}
						return outcome{
							fingerprint: fmt.Sprintf("cost=%d", row.BlockingRes.Tour.Cost),
							simElapsed:  row.Sequential + row.Blocking + row.Adaptive,
						}, nil
					},
				})
			}
		}
		return reqs, nil
	}}
}

// fig1Config is the Figure 1 grid: critical-section lengths × waiting
// strategies.
type fig1Config struct {
	lengths    []sim.Time
	strategies []workload.Strategy
}

var defaultFig1 = fig1Config{
	lengths: []sim.Time{
		5 * sim.Microsecond, 10 * sim.Microsecond, 25 * sim.Microsecond,
		50 * sim.Microsecond, 100 * sim.Microsecond, 250 * sim.Microsecond,
		500 * sim.Microsecond, 1000 * sim.Microsecond,
	},
	strategies: experiments.Figure1Strategies(),
}

// fig1Multiprog: one request is one Figure 1 cell, workload.RunCS on the
// figure's 8-processor, 24-thread, 1 ms-quantum machine; the oracle is
// the fingerprint the warm-up pass produced.
func fig1Multiprog(c fig1Config) spec {
	return spec{name: "fig1-multiprog", clients: 2, observesAll: true, build: func(seed uint64, clients int) ([]request, error) {
		machine := sim.Config{Seed: machineSeed(seed), Quantum: sim.Millisecond}
		var reqs []request
		for _, cs := range c.lengths {
			for _, strat := range c.strategies {
				reqs = append(reqs, request{
					label: fmt.Sprintf("cs=%dus/%s", int64(cs/sim.Microsecond), strat.Name),
					run: func(obs *counters) (outcome, error) {
						// Figure 1's defaults (experiments.Figure1Options).
						cfg := workload.CSConfig{
							Procs: 8, Threads: 24, Iters: 25, CSLength: cs,
							LocalWork: 400 * sim.Microsecond, Jitter: 100 * sim.Microsecond,
							Machine: machine,
						}
						if obs != nil {
							cfg.Profiler, cfg.Ledger = profile.New(), core.NewLedger(ledgerCapacity)
						}
						res, err := workload.RunCS(cfg, strat)
						if err != nil {
							return outcome{}, err
						}
						if obs != nil {
							obs.addObservers(cfg.Profiler, cfg.Ledger)
							obs.addLock(res.Stats)
							obs.observedSpinIters += res.Stats.SpinIters
						}
						return outcome{
							fingerprint: fmt.Sprintf("elapsed=%d %+v", res.Elapsed, res.Stats),
							simElapsed:  res.Elapsed,
						}, nil
					},
				})
			}
		}
		return reqs, warmUp(reqs, clients)
	}}
}

// shardedConfig sizes the sharded-ring workload.
type shardedConfig struct {
	nodes, shards, workers, rounds int
}

var defaultSharded = shardedConfig{nodes: 1024, shards: 2, workers: 2, rounds: 2}

// shardedRing: one request is experiments.ShardedRun at the configured
// shard count; the oracle is the serial (shards=1) reference run, whose
// simulated history every partition must reproduce.
func shardedRing(c shardedConfig) spec {
	return spec{name: "sharded-ring", clients: 1, build: func(seed uint64, _ int) ([]request, error) {
		machine := sim.Config{Nodes: c.nodes, Seed: machineSeed(seed)}
		ref, err := experiments.ShardedRun(machine, 1, 1, c.rounds)
		if err != nil {
			return nil, fmt.Errorf("sharded-ring reference: %w", err)
		}
		fingerprint := func(r experiments.ShardedRow) string {
			return fmt.Sprintf("simtime=%d busy=%d checksum=%016x", r.SimTime, r.Busy, r.Checksum)
		}
		return []request{{
			label: fmt.Sprintf("ring%d/shards%d", c.nodes, c.shards),
			want:  fingerprint(ref),
			run: func(obs *counters) (outcome, error) {
				row, err := experiments.ShardedRun(machine, c.shards, c.workers, c.rounds)
				if err != nil {
					return outcome{}, err
				}
				if obs != nil {
					obs.wakeups += int64(row.Wakeups)
					obs.preemptions += int64(row.Preempt)
					obs.crossMsgs += row.CrossMsgs
				}
				return outcome{fingerprint: fingerprint(row), simElapsed: row.SimTime}, nil
			},
		}}, nil
	}}
}

// monitorConfig is the contended-hotspot grid: execution modes × callers.
type monitorConfig struct {
	modes   []string
	callers []int
}

var defaultMonitor = monitorConfig{modes: experiments.HotspotModes, callers: []int{2, 8, 32}}

// monitorHotspot: one request is one experiments.MonitorHotspotRun cell;
// the oracle is the row the warm-up pass produced.
func monitorHotspot(c monitorConfig) spec {
	return spec{name: "monitor-hotspot", clients: 2, build: func(seed uint64, clients int) ([]request, error) {
		machine := sim.Config{Seed: machineSeed(seed)}
		var reqs []request
		for _, mode := range c.modes {
			for _, callers := range c.callers {
				reqs = append(reqs, request{
					label: fmt.Sprintf("%s/%d", mode, callers),
					run: func(obs *counters) (outcome, error) {
						row, err := experiments.MonitorHotspotRun(machine, mode, callers)
						if err != nil {
							return outcome{}, err
						}
						if obs != nil {
							obs.batches += row.Batches
							obs.maxBatch = max(obs.maxBatch, row.MaxBatch)
						}
						return outcome{fingerprint: fmt.Sprintf("%+v", row), simElapsed: row.Elapsed}, nil
					},
				})
			}
		}
		return reqs, warmUp(reqs, clients)
	}}
}

// warmUp runs every request once over the given number of workers and
// records its fingerprint as the one the oracle expects from then on.
func warmUp(reqs []request, workers int) error {
	return forEach(len(reqs), workers, func(i int) error {
		out, err := reqs[i].run(nil)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", reqs[i].label, err)
		}
		reqs[i].want = out.fingerprint
		return nil
	})
}

// ledgerCapacity bounds each traced request's decision ledger; entries
// past it are counted by Ledger.Dropped and reported as samples.
const ledgerCapacity = 1 << 18

// counters accumulates the per-layer counts of traced requests. Each
// client owns one; they are merged after the phase.
type counters struct {
	// From profile.Profiler, on the solves the entry point lets it observe.
	dispatches, fastForwards, batchedIters int64
	// observedSpinIters is locks.Stats.SpinIters of those same solves, the
	// base of the batched-spin fraction.
	observedSpinIters uint64
	// From core.Ledger.
	ledgerSamples, ledgerApplies, ledgerRejected int64
	// From locks.Stats.
	lockAcq, lockContended, lockBlocks, lockSpinIters, lockRemote uint64
	// From cthreads.Stats or the rows that carry it.
	ctxSwitches, wakeups, preemptions int64
	crossMsgs                         uint64
	// From active.Stats via the hotspot rows.
	batches, maxBatch uint64
	// From tsp.Result.
	expansions, useless int64
}

func (c *counters) merge(o counters) {
	c.dispatches += o.dispatches
	c.fastForwards += o.fastForwards
	c.batchedIters += o.batchedIters
	c.observedSpinIters += o.observedSpinIters
	c.ledgerSamples += o.ledgerSamples
	c.ledgerApplies += o.ledgerApplies
	c.ledgerRejected += o.ledgerRejected
	c.lockAcq += o.lockAcq
	c.lockContended += o.lockContended
	c.lockBlocks += o.lockBlocks
	c.lockSpinIters += o.lockSpinIters
	c.lockRemote += o.lockRemote
	c.ctxSwitches += o.ctxSwitches
	c.wakeups += o.wakeups
	c.preemptions += o.preemptions
	c.crossMsgs += o.crossMsgs
	c.batches += o.batches
	c.maxBatch = max(c.maxBatch, o.maxBatch)
	c.expansions += o.expansions
	c.useless += o.useless
}

func (c *counters) addObservers(p *profile.Profiler, l *core.Ledger) {
	c.dispatches += p.Dispatches()
	c.fastForwards += p.FastForwards()
	c.batchedIters += p.BatchedIters()
	c.ledgerSamples += int64(l.Dropped())
	for _, e := range l.Entries() {
		switch e.Kind {
		case core.EntrySample:
			c.ledgerSamples++
		case core.EntryApply:
			c.ledgerApplies++
			if e.Err != "" {
				c.ledgerRejected++
			}
		}
	}
}

func (c *counters) addLock(st locks.Stats) {
	c.lockAcq += st.Acquisitions
	c.lockContended += st.Contended
	c.lockBlocks += st.Blocks
	c.lockSpinIters += st.SpinIters
	c.lockRemote += st.RemoteTransfers
}

// addTSP adds one solve of a comparison row; observed marks the solve the
// row's profiler and ledger were attached to (the adaptive one).
func (c *counters) addTSP(r tsp.Result, observed bool) {
	c.expansions += int64(r.Expansions)
	c.useless += int64(r.Useless)
	c.ctxSwitches += int64(r.Sched.ContextSwitches)
	c.wakeups += int64(r.Sched.Wakeups)
	c.preemptions += int64(r.Sched.Preemptions)
	//simlint:allow maporder -- the body only adds integers, which no order changes
	for _, st := range r.LockStats {
		c.addLock(st)
		if observed {
			c.observedSpinIters += st.SpinIters
		}
	}
}
