package sor

import (
	"fmt"
	"math"

	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
)

// stepsPerCell is the computation charge per cell update.
const stepsPerCell = 4

// Config parameterizes a parallel solve on the simulated machine.
type Config struct {
	Problem
	// Workers is the number of worker threads.
	Workers int
	// Procs is the number of processors (default Workers; fewer means
	// multiprogramming, where sleeping at the barrier frees a processor
	// for a co-located worker). With Procs < Workers set Machine.Quantum
	// for timeslicing.
	Procs int
	// LockKind selects the residual lock's implementation.
	LockKind locks.Kind
	Machine  sim.Config
	// BarrierKind selects the sweep barrier: "sleep" (default), "spin"
	// (arrivals poll), or "adaptive" (locks.AdaptiveBarrier, which moves
	// between the two from the sensed arrival spread).
	BarrierKind string
	// Skew imbalances the strip sizes: worker w's share is weighted by
	// 1 + Skew·w/(Workers-1), so late strips hold earlier arrivals at the
	// barrier longer. 0 = balanced.
	Skew float64
}

// Result is the outcome of a parallel solve.
type Result struct {
	Sweeps   int
	Elapsed  sim.Time
	Residual float64
	Grid     [][]float64
	// ResidualLock is the contended lock's statistics.
	ResidualLock locks.Stats
	Sched        cthreads.Stats
	Utilization  float64
}

// Solve runs red-black SOR with Workers threads on the simulated machine:
// each worker owns a strip of rows; barriers separate the red and black
// half-sweeps; a lock-protected fold produces the global residual each
// sweep. The arithmetic is identical to SolveSerial's, so the returned
// grid matches the serial one bit for bit at equal sweep counts.
func Solve(cfg Config) (Result, error) {
	p, err := cfg.Problem.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if cfg.Workers < 1 {
		cfg.Workers = 8
	}
	if cfg.Workers > p.N {
		return Result{}, fmt.Errorf("sor: %d workers for %d rows", cfg.Workers, p.N)
	}
	if cfg.Procs == 0 {
		cfg.Procs = cfg.Workers
	}
	if cfg.Machine.Nodes < cfg.Procs {
		cfg.Machine.Nodes = cfg.Procs
	}

	sys := cthreads.New(cfg.Machine)
	resLock := locks.MustNew(sys, cfg.LockKind, 0, "residual-lock")
	// Three rendezvous per sweep, each its own barrier object so an
	// adaptive barrier tunes to its phase's arrival pattern.
	mkBarrier := func(name string) (locks.Barrier, error) {
		switch cfg.BarrierKind {
		case "", "sleep":
			return sys.NewBarrier(name, cfg.Workers), nil
		case "spin":
			bar := sys.NewBarrier(name, cfg.Workers)
			bar.SpinWait = 2 * sim.Microsecond
			return bar, nil
		case "adaptive":
			return locks.NewAdaptiveBarrier(sys, name, cfg.Workers, nil), nil
		default:
			return nil, fmt.Errorf("sor: unknown barrier kind %q", cfg.BarrierKind)
		}
	}
	barRed, err := mkBarrier("sweep-red")
	if err != nil {
		return Result{}, err
	}
	barBlack, err := mkBarrier("sweep-black")
	if err != nil {
		return Result{}, err
	}
	barPublish, err := mkBarrier("sweep-publish")
	if err != nil {
		return Result{}, err
	}

	g := p.NewGrid()
	// Double-buffered global residual, indexed by sweep parity; the slot
	// for the next sweep is zeroed by the thread that trips the barrier.
	var globalRes [2]float64
	sweeps := 0
	done := false

	// Strip boundaries: rows 1..N split by (possibly skewed) weights.
	bounds := make([]int, cfg.Workers+1)
	bounds[0] = 1
	weights := make([]float64, cfg.Workers)
	var totalW float64
	for w := 0; w < cfg.Workers; w++ {
		weights[w] = 1
		if cfg.Skew > 0 && cfg.Workers > 1 {
			weights[w] = 1 + cfg.Skew*float64(w)/float64(cfg.Workers-1)
		}
		totalW += weights[w]
	}
	acc := 0.0
	for w := 0; w < cfg.Workers; w++ {
		acc += weights[w]
		bounds[w+1] = 1 + int(acc/totalW*float64(p.N)+0.5)
	}
	bounds[cfg.Workers] = p.N + 1
	for w := 0; w < cfg.Workers; w++ {
		if bounds[w+1] <= bounds[w] {
			return Result{}, fmt.Errorf("sor: skew %g leaves worker %d without rows", cfg.Skew, w)
		}
	}

	for w := 0; w < cfg.Workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		sys.Fork(w%cfg.Procs, fmt.Sprintf("sor%d", w), func(t *cthreads.Thread) {
			for s := 0; !done && s < p.MaxSweeps; s++ {
				slot := s % 2
				redRes, redCells := sweepRows(g, lo, hi, 0, p.Omega)
				t.Compute(redCells * stepsPerCell)
				barRed.Arrive(t)

				blackRes, blackCells := sweepRows(g, lo, hi, 1, p.Omega)
				t.Compute(blackCells * stepsPerCell)
				local := math.Max(redRes, blackRes)

				resLock.Lock(t)
				t.Compute(6)
				if local > globalRes[slot] {
					globalRes[slot] = local
				}
				resLock.Unlock(t)

				if barBlack.Arrive(t) {
					// Last arrival: publish the sweep outcome and prepare
					// the next slot. The third barrier below guarantees
					// every worker sees the publication before re-reading
					// done.
					sweeps = s + 1
					if globalRes[slot] < p.Tol {
						done = true
					}
					globalRes[(slot+1)%2] = 0
				}
				barPublish.Arrive(t)
			}
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	if !done {
		return Result{}, fmt.Errorf("sor: no convergence after %d sweeps", sweeps)
	}
	return Result{
		Sweeps:       sweeps,
		Elapsed:      sys.Now(),
		Residual:     globalRes[(sweeps-1)%2],
		Grid:         g,
		ResidualLock: resLock.Stats(),
		Sched:        sys.Stats(),
		Utilization:  sys.Utilization(),
	}, nil
}
