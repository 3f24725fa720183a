package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SchedRow is one scheduler's completion time on the client-server
// workload ([MS93] via §2: priority best, FCFS worst).
type SchedRow struct {
	Scheduler string
	Elapsed   sim.Time
	// MeanResponse is the average request latency — the figure of merit
	// for a client-server program: a scheduler that starves the server of
	// the lock lets the backlog and every response time grow.
	MeanResponse sim.Time
	QueuePeak    int
}

// SchedulerComparison runs the client-server workload under each lock
// scheduler variant, fanning the independent runs out over up to e.Jobs
// workers (results stay in input order).
func SchedulerComparison(e Env) ([]SchedRow, error) {
	// The fourth mode is this reproduction's §7 future-work configuration:
	// the lock adapts its own scheduler (FCFS → priority) as the queue
	// builds.
	scheds := []string{locks.SchedFCFS, locks.SchedPriority, locks.SchedHandoff, workload.SchedAdaptive}
	return sweep(e, len(scheds), func(i int) (SchedRow, error) {
		sched := scheds[i]
		res, err := workload.RunClientServer(workload.ClientServerConfig{
			Clients:     8,
			Requests:    25,
			ServiceTime: 10 * sim.Microsecond,
			ThinkTime:   20 * sim.Microsecond,
			Scheduler:   sched,
			Machine:     e.Machine,
		})
		if err != nil {
			return SchedRow{}, fmt.Errorf("scheduler %s: %w", sched, err)
		}
		return SchedRow{Scheduler: sched, Elapsed: res.Elapsed, MeanResponse: res.MeanResponse, QueuePeak: res.QueuePeak}, nil
	})
}

// CrossoverRow compares pure spin and pure blocking at one level of
// multiprogramming ([MS93] §2: spin wins at 1 thread/processor, blocking
// wins beyond).
type CrossoverRow struct {
	ThreadsPerProc int
	Spin           sim.Time
	Block          sim.Time
}

// SpinVsBlockCrossover sweeps threads-per-processor for the two pure
// waiting policies on up to e.Jobs workers.
func SpinVsBlockCrossover(e Env) ([]CrossoverRow, error) {
	const procs = 4
	if e.Machine.Quantum == 0 {
		e.Machine.Quantum = 500 * sim.Microsecond
	}
	return sweep(e, 4, func(i int) (CrossoverRow, error) {
		tpp := i + 1
		cfg := workload.CSConfig{
			Procs:     procs,
			Threads:   procs * tpp,
			Iters:     20,
			CSLength:  100 * sim.Microsecond,
			LocalWork: 300 * sim.Microsecond,
			Jitter:    50 * sim.Microsecond,
			Machine:   e.Machine,
		}
		spin, err := workload.RunCS(cfg, workload.SpinStrategy())
		if err != nil {
			return CrossoverRow{}, fmt.Errorf("crossover spin tpp=%d: %w", tpp, err)
		}
		block, err := workload.RunCS(cfg, workload.BlockStrategy())
		if err != nil {
			return CrossoverRow{}, fmt.Errorf("crossover block tpp=%d: %w", tpp, err)
		}
		return CrossoverRow{ThreadsPerProc: tpp, Spin: spin.Elapsed, Block: block.Elapsed}, nil
	})
}

// AblationRow is the adaptive lock's performance on a contended workload
// for one (Waiting-Threshold, n) pair — the constants the paper leaves to
// future work.
type AblationRow struct {
	WaitingThreshold int64
	Step             int64
	Elapsed          sim.Time
}

// PolicyAblation sweeps the SimpleAdapt constants on a mixed-contention
// workload; the (threshold × step) grid fans out over up to e.Jobs workers.
func PolicyAblation(e Env) ([]AblationRow, error) {
	if e.Machine.Quantum == 0 {
		e.Machine.Quantum = 500 * sim.Microsecond
	}
	thresholds := []int64{1, 3, 6}
	steps := []int64{5, 10, 25}
	return sweep(e, len(thresholds)*len(steps), func(i int) (AblationRow, error) {
		threshold := thresholds[i/len(steps)]
		step := steps[i%len(steps)]
		res, err := workload.RunCS(workload.CSConfig{
			Procs:     4,
			Threads:   12,
			Iters:     20,
			CSLength:  80 * sim.Microsecond,
			LocalWork: 250 * sim.Microsecond,
			Jitter:    40 * sim.Microsecond,
			Machine:   e.Machine,
		}, adaptiveStrategy(threshold, step))
		if err != nil {
			return AblationRow{}, fmt.Errorf("ablation t=%d n=%d: %w", threshold, step, err)
		}
		return AblationRow{WaitingThreshold: threshold, Step: step, Elapsed: res.Elapsed}, nil
	})
}

// AdvisoryRow is one waiting strategy's execution time on the
// variable-length critical-section workload ([MS93] via §2: "a speculative
// or advisory lock performs well for variable length critical sections").
type AdvisoryRow struct {
	Strategy string
	Elapsed  sim.Time
	Blocks   uint64
	Spins    uint64
}

// AdvisoryComparison runs a workload whose critical sections are short
// (10µs) 90% of the time and long (2ms) 10% of the time, under pure spin,
// pure blocking, a 10-spin combined lock, and the advisory lock whose
// owner publishes its expected hold time.
func AdvisoryComparison(e Env) ([]AdvisoryRow, error) {
	if e.Machine.Quantum == 0 {
		e.Machine.Quantum = 500 * sim.Microsecond
	}
	cfg := workload.CSConfig{
		Procs:     8,
		Threads:   24,
		Iters:     25,
		CSLength:  10 * sim.Microsecond,
		LongCS:    2 * sim.Millisecond,
		LongFrac:  0.1,
		LocalWork: 400 * sim.Microsecond,
		Jitter:    100 * sim.Microsecond,
		Machine:   e.Machine,
	}
	strategies := []workload.Strategy{
		workload.SpinStrategy(),
		workload.BlockStrategy(),
		workload.CombinedStrategy(10),
		workload.AdvisoryStrategy(),
	}
	return sweep(e, len(strategies), func(i int) (AdvisoryRow, error) {
		s := strategies[i]
		res, err := workload.RunCS(cfg, s)
		if err != nil {
			return AdvisoryRow{}, fmt.Errorf("advisory %s: %w", s.Name, err)
		}
		return AdvisoryRow{
			Strategy: s.Name,
			Elapsed:  res.Elapsed,
			Blocks:   res.Stats.Blocks,
			Spins:    res.Stats.SpinIters,
		}, nil
	})
}

// RetargetRow compares the centralized test-and-set spin lock with the
// distributed local-spin (MCS-style) queue lock at one contention level.
type RetargetRow struct {
	Threads    int
	RemoteSpin sim.Time // TAS spin lock, everyone spinning on one word
	LocalSpin  sim.Time // MCS-style queue lock, local spinning
	// HotSpotDelay is the total module-queuing delay at the lock's home
	// node under the TAS lock — the switch hot spot itself.
	HotSpotDelay sim.Time
}

// LockRetargeting reproduces the §2 implementation-retargeting result:
// on a machine whose memory modules serialize accesses
// (sim.HotSpotConfig), a centralized spin lock's waiters flood the lock
// word's module and delay the release they wait for, while the
// distributed (local-spin) representation keeps the module quiet. Sweeps
// the number of contending processors.
func LockRetargeting(e Env) ([]RetargetRow, error) {
	if e.Machine.ModuleService == 0 {
		e.Machine = sim.HotSpotConfig()
	}
	counts := []int{2, 4, 8, 16}
	return sweep(e, len(counts), func(i int) (RetargetRow, error) {
		threads := counts[i]
		m := e.Machine
		if m.Nodes < threads {
			m.Nodes = threads
		}
		run := func(mk func(sys *cthreads.System) locks.Lock) (sim.Time, sim.Time, error) {
			sys := cthreads.New(m)
			l := mk(sys)
			for i := 0; i < threads; i++ {
				sys.Fork(i, fmt.Sprintf("w%d", i), func(t *cthreads.Thread) {
					for j := 0; j < 20; j++ {
						l.Lock(t)
						t.Advance(20 * sim.Microsecond)
						l.Unlock(t)
						t.Advance(20 * sim.Microsecond)
					}
				})
			}
			if err := sys.Run(); err != nil {
				return 0, 0, err
			}
			return sys.Now(), sys.Machine().ModuleQueueDelay(0), nil
		}
		remote, hot, err := run(func(sys *cthreads.System) locks.Lock {
			return locks.NewSpinLock(sys, 0, "tas-spin")
		})
		if err != nil {
			return RetargetRow{}, fmt.Errorf("retarget tas threads=%d: %w", threads, err)
		}
		local, _, err := run(func(sys *cthreads.System) locks.Lock {
			return locks.NewLocalSpinLock(sys, 0, "local-spin")
		})
		if err != nil {
			return RetargetRow{}, fmt.Errorf("retarget mcs threads=%d: %w", threads, err)
		}
		return RetargetRow{Threads: threads, RemoteSpin: remote, LocalSpin: local, HotSpotDelay: hot}, nil
	})
}

// adaptiveStrategy builds an adaptive-lock strategy with explicit
// SimpleAdapt constants.
func adaptiveStrategy(threshold, step int64) workload.Strategy {
	return workload.Strategy{
		Name: fmt.Sprintf("adaptive(t=%d,n=%d)", threshold, step),
		Make: func(sys *cthreads.System, node int) locks.Lock {
			return locks.NewAdaptiveLock(sys, node, "adaptive", core.SimpleAdapt{
				SpinAttr:         locks.AttrSpinTime,
				WaitingThreshold: threshold,
				Step:             step,
				MaxSpin:          1000,
			})
		},
	}
}
