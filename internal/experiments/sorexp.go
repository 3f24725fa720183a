package experiments

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/sor"
)

// SORRow compares blocking and adaptive residual locks on the SOR solver
// at one worker count.
type SORRow struct {
	Workers        int
	Blocking       sim.Time
	Adaptive       sim.Time
	ImprovementPct float64
	Sweeps         int
}

// SORComparison runs the massively parallel application of the paper's §7
// follow-on study: red-black SOR whose per-sweep residual fold hits one
// lock from every worker at once. Rows sweep the worker count; the
// adaptive lock's gain at the large end is the §4 prediction under a very
// different (bursty, barrier-synchronized) locking pattern than TSP's.
func SORComparison(e Env, workerCounts []int) ([]SORRow, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{8, 16, 24}
	}
	return sweep(e, len(workerCounts), func(i int) (SORRow, error) {
		w := workerCounts[i]
		run := func(kind locks.Kind) (sor.Result, error) {
			return sor.Solve(sor.Config{
				Problem:  sor.Problem{N: 48, Tol: 1e-3},
				Workers:  w,
				LockKind: kind,
			})
		}
		blocking, err := run(locks.KindBlocking)
		if err != nil {
			return SORRow{}, fmt.Errorf("sor blocking %d workers: %w", w, err)
		}
		adaptive, err := run(locks.KindAdaptive)
		if err != nil {
			return SORRow{}, fmt.Errorf("sor adaptive %d workers: %w", w, err)
		}
		if blocking.Sweeps != adaptive.Sweeps {
			return SORRow{}, fmt.Errorf("sor: sweep counts diverge (%d vs %d)", blocking.Sweeps, adaptive.Sweeps)
		}
		return SORRow{
			Workers:        w,
			Blocking:       blocking.Elapsed,
			Adaptive:       adaptive.Elapsed,
			ImprovementPct: 100 * float64(blocking.Elapsed-adaptive.Elapsed) / float64(blocking.Elapsed),
			Sweeps:         blocking.Sweeps,
		}, nil
	})
}
