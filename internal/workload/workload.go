// Package workload provides the synthetic locking workloads behind the
// paper's motivation experiments: the critical-section-length sweep of
// Figure 1 (combined locks with different initial spin counts vs. pure
// spin and pure blocking), the client-server pattern used to compare lock
// schedulers (FCFS vs. priority vs. handoff, §2/[MS93]), and the
// spin-vs-block processor-occupancy experiment.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/profile"
	"repro/internal/sim"
)

// Strategy names a waiting-policy configuration and builds a lock pinned
// to it.
type Strategy struct {
	Name string
	Make func(sys *cthreads.System, node int) locks.Lock
}

// SpinStrategy waits by pure spinning.
func SpinStrategy() Strategy {
	return Strategy{Name: "pure-spin", Make: func(sys *cthreads.System, node int) locks.Lock {
		return locks.NewPureSpinConfigured(sys, node, "spin")
	}}
}

// BlockStrategy waits by pure sleeping.
func BlockStrategy() Strategy {
	return Strategy{Name: "pure-block", Make: func(sys *cthreads.System, node int) locks.Lock {
		return locks.NewPureBlockingConfigured(sys, node, "block")
	}}
}

// CombinedStrategy spins k times, then sleeps (Figure 1's combined locks).
func CombinedStrategy(k int64) Strategy {
	return Strategy{Name: fmt.Sprintf("combined-%d", k), Make: func(sys *cthreads.System, node int) locks.Lock {
		return locks.NewReconfigurableLock(sys, node, fmt.Sprintf("combined%d", k), k)
	}}
}

// AdvisoryStrategy uses the advisory lock; RunCS passes each critical
// section's length as the hold hint, so the owner's advice is exact.
func AdvisoryStrategy() Strategy {
	return Strategy{Name: "advisory", Make: func(sys *cthreads.System, node int) locks.Lock {
		return locks.NewAdvisoryLock(sys, node, "advisory")
	}}
}

// MutableStrategy uses the predictive mutable lock: each waiter chooses
// spin, spin-then-block, or block from the monitored hold-time estimate.
func MutableStrategy() Strategy {
	return Strategy{Name: "mutable", Make: func(sys *cthreads.System, node int) locks.Lock {
		return locks.NewMutableLock(sys, node, "mutable")
	}}
}

// CohortStrategy uses the NUMA cohort lock: releases hand off within the
// releasing node while the fairness budget allows.
func CohortStrategy() Strategy {
	return Strategy{Name: "cohort", Make: func(sys *cthreads.System, node int) locks.Lock {
		return locks.NewCohortLock(sys, node, "cohort")
	}}
}

// hintedLock is a lock whose owner can declare its expected hold time.
type hintedLock interface {
	locks.Lock
	LockHint(t *cthreads.Thread, expectedHold sim.Time)
}

// SchedAdaptive selects the adaptive-scheduler configuration in
// RunClientServer: the lock itself switches between FCFS and priority
// release as its queue grows and shrinks (the paper's §7 future work).
const SchedAdaptive = "adaptive"

// CSConfig is a critical-section workload: Threads threads spread over
// Procs processors, each performing Iters lock/unlock cycles around a
// critical section of CSLength, separated by LocalWork of private
// computation.
type CSConfig struct {
	Procs    int
	Threads  int
	Iters    int
	CSLength sim.Time
	// LocalWork is the uncontended computation between critical sections.
	LocalWork sim.Time
	// Jitter randomizes LocalWork by ±Jitter to desynchronize threads
	// (deterministic, from the machine seed).
	Jitter sim.Time
	// LongCS and LongFrac make critical-section lengths variable: each
	// iteration uses LongCS with probability LongFrac, CSLength otherwise
	// (the variable-length regime in which advisory locks shine).
	LongCS   sim.Time
	LongFrac float64
	Machine  sim.Config
	// Profiler and Ledger, when non-nil, observe the run: virtual-time
	// attribution and adaptation decisions respectively.
	Profiler *profile.Profiler
	Ledger   *core.Ledger
}

// CSResult is the outcome of one critical-section workload run.
type CSResult struct {
	Elapsed sim.Time
	Stats   locks.Stats
}

// RunCS runs the workload with the given waiting strategy and returns the
// application execution time (the paper's Figure 1 y-axis).
func RunCS(cfg CSConfig, strat Strategy) (CSResult, error) {
	if cfg.Procs < 1 || cfg.Threads < 1 || cfg.Iters < 1 {
		return CSResult{}, fmt.Errorf("workload: Procs, Threads, Iters must be positive")
	}
	if cfg.Machine.Nodes < cfg.Procs {
		cfg.Machine.Nodes = cfg.Procs
	}
	sys := cthreads.New(cfg.Machine)
	sys.SetProfiler(cfg.Profiler)
	sys.SetLedger(cfg.Ledger)
	l := strat.Make(sys, 0)
	for i := 0; i < cfg.Threads; i++ {
		proc := i % cfg.Procs
		sys.Fork(proc, fmt.Sprintf("%s-w%d", strat.Name, i), func(t *cthreads.Thread) {
			for j := 0; j < cfg.Iters; j++ {
				cs := cfg.CSLength
				if cfg.LongCS > 0 && t.Rand().Float64() < cfg.LongFrac {
					cs = cfg.LongCS
				}
				if hl, ok := l.(hintedLock); ok {
					hl.LockHint(t, cs)
				} else {
					l.Lock(t)
				}
				t.Advance(cs)
				l.Unlock(t)
				work := cfg.LocalWork
				if cfg.Jitter > 0 {
					work += t.Rand().Duration(2*cfg.Jitter) - cfg.Jitter
				}
				t.Advance(work)
			}
		})
	}
	if err := sys.Run(); err != nil {
		return CSResult{}, err
	}
	return CSResult{Elapsed: sys.Now(), Stats: l.Stats()}, nil
}

// ClientServerConfig is the [MS93] scheduler-comparison workload: client
// threads enqueue requests under the lock; one high-priority server thread
// drains them. The lock scheduler decides who gets the lock when both
// clients and the server are waiting — priority scheduling favours the
// server (keeping the queue short), FCFS makes it wait behind every
// client, and handoff lets each client pass the lock straight to the
// server.
type ClientServerConfig struct {
	Scheduler string // locks.SchedFCFS, SchedPriority, SchedHandoff
	Machine   sim.Config
}

// The client-server workload's fixed shape: csClients clients each
// enqueue csRequests requests, thinking csThinkTime before each; the
// server spends csServiceTime on every request.
const (
	csClients     = 8
	csRequests    = 25
	csServiceTime = 10 * sim.Microsecond
	csThinkTime   = 20 * sim.Microsecond
)

// ClientServerResult reports the workload outcome.
type ClientServerResult struct {
	Elapsed sim.Time
	Served  int
	// QueuePeak is the largest request backlog the server accumulated.
	QueuePeak int
	// MeanResponse is the average enqueue-to-served latency — the
	// client-server "performance" the scheduler comparison is about: a
	// scheduler that starves the server of the lock lets the backlog (and
	// with it every response time) grow without bound.
	MeanResponse sim.Time
	Stats        locks.Stats
}

// RunClientServer runs the client-server workload under the given lock
// scheduler and returns total completion time.
func RunClientServer(cfg ClientServerConfig) (ClientServerResult, error) {
	switch cfg.Scheduler {
	case locks.SchedFCFS, locks.SchedPriority, locks.SchedHandoff, SchedAdaptive:
	default:
		return ClientServerResult{}, fmt.Errorf("workload: unknown scheduler %q", cfg.Scheduler)
	}
	procs := csClients + 1
	if cfg.Machine.Nodes < procs {
		cfg.Machine.Nodes = procs
	}
	sys := cthreads.New(cfg.Machine)
	var l *locks.ReconfigurableLock
	if cfg.Scheduler == SchedAdaptive {
		// The §7 future-work configuration: an adaptive lock whose policy
		// reconfigures the *scheduler* method — FCFS while the lock is
		// calm, priority once a queue builds — while the waiting policy
		// stays pure blocking.
		al := locks.NewAdaptiveLock(sys, 0, "cs-lock", core.SchedulerAdapt{
			Method:         locks.MethodScheduler,
			Calm:           locks.SchedFCFS,
			Busy:           locks.SchedPriority,
			QueueThreshold: 2,
		})
		al.SetupPolicy(0, 0, 1, 0)
		l = &al.ReconfigurableLock
	} else {
		l = locks.NewPureBlockingConfigured(sys, 0, "cs-lock")
		if _, err := l.Object().Methods.Install(locks.MethodScheduler, cfg.Scheduler); err != nil {
			return ClientServerResult{}, err
		}
	}

	// Producer-consumer structure: clients produce requests into a shared
	// buffer under the lock and continue (fire-and-forget); the single
	// server consumes them under the same lock. The run ends when every
	// request has been served, so the measurement is dominated by how
	// well the lock scheduler keeps the bottleneck thread — the server —
	// supplied with the lock. Under FCFS the server gets one acquisition
	// per full rotation of contending clients and the queue grows until a
	// long serial drain phase; under priority (and under handoff with
	// clients designating the server) the server consumes concurrently
	// with production.
	total := csClients * csRequests
	var queue []sim.Time // enqueue timestamps
	peak := 0
	served := 0
	var totalResponse sim.Time

	var server *cthreads.Thread
	server = sys.Fork(0, "server", func(t *cthreads.Thread) {
		t.SetPriority(100)
		for served < total {
			l.Lock(t)
			var enqueuedAt sim.Time = -1
			if len(queue) > 0 {
				enqueuedAt = queue[0]
				queue = queue[1:]
			}
			l.Unlock(t)
			if enqueuedAt >= 0 {
				t.Advance(csServiceTime)
				served++
				totalResponse += t.Now() - enqueuedAt
			} else {
				t.Advance(10 * sim.Microsecond)
			}
		}
	})

	for i := 0; i < csClients; i++ {
		sys.Fork(i+1, fmt.Sprintf("client%d", i), func(t *cthreads.Thread) {
			t.SetPriority(1)
			for j := 0; j < csRequests; j++ {
				t.Advance(csThinkTime)
				l.Lock(t)
				t.Advance(csServiceTime / 4) // build the request in place
				queue = append(queue, t.Now())
				if len(queue) > peak {
					peak = len(queue)
				}
				if cfg.Scheduler == locks.SchedHandoff {
					l.SetSuccessor(server)
				}
				l.Unlock(t)
			}
		})
	}
	if err := sys.Run(); err != nil {
		return ClientServerResult{}, err
	}
	return ClientServerResult{
		Elapsed:      sys.Now(),
		Served:       served,
		QueuePeak:    peak,
		MeanResponse: totalResponse / sim.Time(total),
		Stats:        l.Stats(),
	}, nil
}
