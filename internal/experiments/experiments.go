// Package experiments encodes every table and figure of the paper's
// evaluation as a reproducible function: the lock microbenchmarks of §5.2
// (Tables 4–8), the TSP application comparisons of §4 (Tables 1–3) with
// their locking-pattern figures (Figures 4–9), the combined-lock
// motivation sweep (Figure 1), and the extension experiments (scheduler
// comparison, spin-vs-block crossover, adaptation-policy ablation, …).
//
// Registry lists each of them once as a Spec: the name cmd/repro selects
// it by, the claim it reproduces, the Env inputs it reads, and a Run that
// returns the rendered output plus the metrics the root bench_test.go
// benchmarks report. The golden test pins every Spec's default output;
// the shape-assertion tests call the experiment functions directly.
// Every run is deterministic given its Env.
package experiments

import (
	"fmt"

	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
)

// lockDefaults fills the microbenchmark defaults: a machine of at least
// two nodes and 16 repetitions per measured operation (adaptive locks
// reach steady state after a few samples).
func (e Env) lockDefaults() Env {
	if e.Machine.Nodes < 2 {
		e.Machine.Nodes = 2
	}
	if e.Iters < 1 {
		e.Iters = 16
	}
	return e
}

// LockOpRow is one row of Table 4 or Table 5: the latency of a lock or
// unlock operation with the lock word in local vs. remote memory.
type LockOpRow struct {
	Kind   string
	Local  sim.Time
	Remote sim.Time
}

// lockKindsTable4 lists Table 4's rows in paper order, followed by this
// reproduction's additional kinds.
var lockKindsTable4 = []locks.Kind{
	locks.KindTAS, locks.KindSpin, locks.KindBackoff, locks.KindBlocking, locks.KindAdaptive,
	locks.KindMutable, locks.KindCohort,
}

// lockKindsTable5 lists Table 5's rows in paper order (no raw atomior
// row), followed by this reproduction's additional kinds.
var lockKindsTable5 = []locks.Kind{
	locks.KindSpin, locks.KindBackoff, locks.KindBlocking, locks.KindAdaptive,
	locks.KindMutable, locks.KindCohort,
}

// kindLabel renders a lock kind the way the paper's tables name it.
func kindLabel(k locks.Kind) string {
	switch k {
	case locks.KindTAS:
		return "atomior"
	case locks.KindSpin:
		return "spin-lock"
	case locks.KindBackoff:
		return "spin-with-backoff"
	case locks.KindBlocking:
		return "blocking-lock"
	case locks.KindAdaptive:
		return "adaptive lock"
	case locks.KindMutable:
		return "mutable lock"
	case locks.KindCohort:
		return "cohort lock"
	default:
		return string(k)
	}
}

// tableKinds applies the Env.Kinds restriction to a table's row set,
// preserving table order.
func (e Env) tableKinds(all []locks.Kind) []locks.Kind {
	if len(e.Kinds) == 0 {
		return all
	}
	want := make(map[locks.Kind]bool, len(e.Kinds))
	for _, k := range e.Kinds {
		want[k] = true
	}
	out := make([]locks.Kind, 0, len(all))
	for _, k := range all {
		if want[k] {
			out = append(out, k)
		}
	}
	return out
}

// measureOp runs one thread on the given node against a lock on node 0 and
// returns the mean duration of the measured operation over opts.Iters
// uncontended lock/unlock cycles.
func measureOp(opts Env, kind locks.Kind, threadNode int, op string) (sim.Time, error) {
	sys := cthreads.New(opts.Machine)
	opts.attach(sys)
	l, err := locks.New(sys, kind, 0, string(kind))
	if err != nil {
		return 0, err
	}
	var total sim.Time
	sys.Fork(threadNode, "measurer", func(t *cthreads.Thread) {
		for i := 0; i < opts.Iters; i++ {
			switch op {
			case "lock":
				start := t.Now()
				l.Lock(t)
				total += t.Now() - start
				l.Unlock(t)
			case "unlock":
				l.Lock(t)
				start := t.Now()
				l.Unlock(t)
				total += t.Now() - start
			default:
				panic("experiments: unknown op " + op)
			}
			t.Advance(10 * sim.Microsecond)
		}
	})
	if err := sys.Run(); err != nil {
		return 0, err
	}
	return total / sim.Time(opts.Iters), nil
}

// Table4 measures the uncontended Lock operation latency for each lock
// kind, local and remote (§5.2 Table 4).
func Table4(opts Env) ([]LockOpRow, error) {
	return lockOpTable(opts, opts.tableKinds(lockKindsTable4), "lock")
}

// Table5 measures the uncontended Unlock operation latency (§5.2 Table 5).
func Table5(opts Env) ([]LockOpRow, error) {
	return lockOpTable(opts, opts.tableKinds(lockKindsTable5), "unlock")
}

func lockOpTable(opts Env, kinds []locks.Kind, op string) ([]LockOpRow, error) {
	opts = opts.lockDefaults()
	return sweep(opts, len(kinds), func(i int) (LockOpRow, error) {
		k := kinds[i]
		local, err := measureOp(opts, k, 0, op)
		if err != nil {
			return LockOpRow{}, fmt.Errorf("%s local %s: %w", op, k, err)
		}
		remote, err := measureOp(opts, k, 1, op)
		if err != nil {
			return LockOpRow{}, fmt.Errorf("%s remote %s: %w", op, k, err)
		}
		return LockOpRow{Kind: kindLabel(k), Local: local, Remote: remote}, nil
	})
}

// CycleRow is one row of Table 6 or 7: the cost of a locking cycle — an
// unlock followed by the waiting requester's completed lock — on a busy
// lock. This is the duration of the lock's "idle state" during a handover.
type CycleRow struct {
	Kind   string
	Local  sim.Time
	Remote sim.Time
}

// cycleLock builds the lock under test for Table 6/7 rows.
type cycleLock func(sys *cthreads.System, node int) locks.Lock

// cycleCase is one Table 6/7 row: its label and the lock it measures.
type cycleCase struct {
	name string
	mk   cycleLock
}

// measureCycle holds the lock on one thread while another waits, then
// releases and measures release-start → waiter-acquired. The holder runs
// on node 0 and is always remote to the lock, so only the waiter's
// distance varies between the local row (lock on the waiter's node 1) and
// the remote row (lock on node 2).
func measureCycle(opts Env, mk cycleLock, lockNode int) (sim.Time, error) {
	if opts.Machine.Nodes < 3 {
		opts.Machine.Nodes = 3
	}
	sys := cthreads.New(opts.Machine)
	opts.attach(sys)
	l := mk(sys, lockNode)
	var releaseAt, acquiredAt sim.Time
	sys.Fork(0, "holder", func(t *cthreads.Thread) {
		l.Lock(t)
		t.Advance(3 * sim.Millisecond) // let the waiter settle into waiting
		releaseAt = t.Now()
		l.Unlock(t)
	})
	sys.Fork(1, "waiter", func(t *cthreads.Thread) {
		t.Advance(200 * sim.Microsecond) // holder certainly owns the lock
		l.Lock(t)
		acquiredAt = t.Now()
		l.Unlock(t)
	})
	if err := sys.Run(); err != nil {
		return 0, err
	}
	if acquiredAt <= releaseAt {
		return 0, fmt.Errorf("experiments: cycle measurement inverted (%v ≤ %v)", acquiredAt, releaseAt)
	}
	return acquiredAt - releaseAt, nil
}

// Table6 measures locking cycles of the static locks: spin,
// spin-with-backoff, and blocking (§5.2 Table 6).
func Table6(opts Env) ([]CycleRow, error) {
	return cycleTable(opts, []cycleCase{
		{"Spin", func(sys *cthreads.System, node int) locks.Lock {
			return locks.NewSpinLock(sys, node, "spin")
		}},
		{"Spin-with-backoff", func(sys *cthreads.System, node int) locks.Lock {
			return locks.NewBackoffSpinLock(sys, node, "backoff")
		}},
		{"Blocking-lock", func(sys *cthreads.System, node int) locks.Lock {
			return locks.NewBlockingLock(sys, node, "blocking")
		}},
	})
}

// Table7 measures locking cycles of the adaptive lock pinned to its
// pure-spin and pure-blocking configurations (§5.2 Table 7).
func Table7(opts Env) ([]CycleRow, error) {
	return cycleTable(opts, []cycleCase{
		{"Spin", func(sys *cthreads.System, node int) locks.Lock {
			return locks.NewPureSpinConfigured(sys, node, "adaptive-as-spin")
		}},
		{"Blocking", func(sys *cthreads.System, node int) locks.Lock {
			return locks.NewPureBlockingConfigured(sys, node, "adaptive-as-blocking")
		}},
	})
}

func cycleTable(opts Env, cases []cycleCase) ([]CycleRow, error) {
	opts = opts.lockDefaults()
	return sweep(opts, len(cases), func(i int) (CycleRow, error) {
		cse := cases[i]
		local, err := measureCycle(opts, cse.mk, 1) // lock local to the waiter
		if err != nil {
			return CycleRow{}, fmt.Errorf("cycle local %s: %w", cse.name, err)
		}
		remote, err := measureCycle(opts, cse.mk, 2) // lock remote to the waiter
		if err != nil {
			return CycleRow{}, fmt.Errorf("cycle remote %s: %w", cse.name, err)
		}
		return CycleRow{Kind: cse.name, Local: local, Remote: remote}, nil
	})
}

// ConfigOpRow is one row of Table 8: the cost of a basic adaptation
// mechanism. Remote is -1 when the paper reports none.
type ConfigOpRow struct {
	Op     string
	Local  sim.Time
	Remote sim.Time
}

// Table8 measures the basic reconfiguration mechanisms: explicit attribute
// acquisition, waiting-policy configuration, scheduler configuration, and
// one general-purpose-monitor sample (§5.2 Table 8).
func Table8(opts Env) ([]ConfigOpRow, error) {
	opts = opts.lockDefaults()
	measure := func(threadNode int, f func(t *cthreads.Thread, l *locks.ReconfigurableLock)) (sim.Time, error) {
		sys := cthreads.New(opts.Machine)
		opts.attach(sys)
		l := locks.NewReconfigurableLock(sys, 0, "cfg", 10)
		var dur sim.Time
		sys.Fork(threadNode, "agent", func(t *cthreads.Thread) {
			start := t.Now()
			f(t, l)
			dur = t.Now() - start
		})
		if err := sys.Run(); err != nil {
			return 0, err
		}
		return dur, nil
	}

	type op struct {
		name   string
		run    func(t *cthreads.Thread, l *locks.ReconfigurableLock)
		remote bool
	}
	ops := []op{
		{"acquisition", func(t *cthreads.Thread, l *locks.ReconfigurableLock) {
			if err := l.AcquireAttrBy(t, locks.AttrSpinTime, 42); err != nil {
				panic(err)
			}
		}, true},
		{"configure(waiting policy)", func(t *cthreads.Thread, l *locks.ReconfigurableLock) {
			if err := l.ConfigureBy(t, waitingDecision(50), -1); err != nil {
				panic(err)
			}
		}, true},
		{"configure(scheduler)", func(t *cthreads.Thread, l *locks.ReconfigurableLock) {
			if err := l.ConfigureBy(t, schedulerDecision(locks.SchedPriority), -1); err != nil {
				panic(err)
			}
		}, true},
		{"monitor (one state variable)", func(t *cthreads.Thread, l *locks.ReconfigurableLock) {
			l.GeneralMonitorSample(t)
		}, false},
	}
	return sweep(opts, len(ops), func(i int) (ConfigOpRow, error) {
		o := ops[i]
		local, err := measure(0, o.run)
		if err != nil {
			return ConfigOpRow{}, fmt.Errorf("table8 %s local: %w", o.name, err)
		}
		remote := sim.Time(-1)
		if o.remote {
			remote, err = measure(1, o.run)
			if err != nil {
				return ConfigOpRow{}, fmt.Errorf("table8 %s remote: %w", o.name, err)
			}
		}
		return ConfigOpRow{Op: o.name, Local: local, Remote: remote}, nil
	})
}
