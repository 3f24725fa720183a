package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// figure1CSLengths is Figure 1's default sweep of critical-section
// lengths (the x-axis).
var figure1CSLengths = []sim.Time{
	5 * sim.Microsecond, 10 * sim.Microsecond, 25 * sim.Microsecond,
	50 * sim.Microsecond, 100 * sim.Microsecond, 250 * sim.Microsecond,
	500 * sim.Microsecond, 1000 * sim.Microsecond,
}

// Figure1Strategies are the waiting policies the figure compares: the
// paper's five (pure spin, pure block, combined-k) plus this
// reproduction's predictive mutable lock and NUMA cohort lock.
func Figure1Strategies() []workload.Strategy {
	return []workload.Strategy{
		workload.SpinStrategy(),
		workload.BlockStrategy(),
		workload.CombinedStrategy(1),
		workload.CombinedStrategy(10),
		workload.CombinedStrategy(50),
		workload.MutableStrategy(),
		workload.CohortStrategy(),
	}
}

// Figure1Row is the application execution time at one critical-section
// length for every strategy, keyed by strategy name.
type Figure1Row struct {
	CSLength sim.Time
	Elapsed  map[string]sim.Time
}

// Figure1 reproduces the paper's Figure 1: application execution time as a
// function of critical-section length for pure spin, pure blocking, and
// combined locks with 1, 10, and 50 initial spins. The workload
// multiprograms each of 8 processors with 3 threads under a 1ms
// preemptive quantum, where the choice between spinning and sleeping is
// a real trade-off. csLengths overrides the default sweep. e's Profiler
// and Ledger, when set, observe every cell of the sweep (one shared
// collector), which forces serial execution.
func Figure1(e Env, csLengths []sim.Time) ([]Figure1Row, error) {
	if len(csLengths) == 0 {
		csLengths = figure1CSLengths
	}
	strategies := Figure1Strategies()
	// The grid is flattened to (length, strategy) cells so the fan-out sees
	// every independent simulation, not just the row count.
	cells, err := sweep(sweepJobs(e.Jobs, e.observed()), len(csLengths)*len(strategies),
		func(i int) (sim.Time, error) {
			cs := csLengths[i/len(strategies)]
			strat := strategies[i%len(strategies)]
			res, err := workload.RunCS(workload.CSConfig{
				Procs: 8, Threads: 24, Iters: 25, CSLength: cs,
				LocalWork: 400 * sim.Microsecond, Jitter: 100 * sim.Microsecond,
				Machine:  sim.Config{Quantum: sim.Millisecond},
				Profiler: e.Profiler, Ledger: e.Ledger,
			}, strat)
			if err != nil {
				return 0, fmt.Errorf("figure1 cs=%v %s: %w", cs, strat.Name, err)
			}
			return res.Elapsed, nil
		})
	if err != nil {
		return nil, err
	}
	rows := make([]Figure1Row, 0, len(csLengths))
	for r, cs := range csLengths {
		row := Figure1Row{CSLength: cs, Elapsed: make(map[string]sim.Time, len(strategies))}
		for s, strat := range strategies {
			row.Elapsed[strat.Name] = cells[r*len(strategies)+s]
		}
		rows = append(rows, row)
	}
	return rows, nil
}
