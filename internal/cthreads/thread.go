package cthreads

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Thread is a user-level thread pinned to one processor of the simulated
// machine. It implements sim.Accessor, so sim.Cell operations charge it the
// correct local/remote latency.
//
// All methods except Wake and the read-only accessors must be called from
// inside the thread's own function while it is running.
type Thread struct {
	sys  *System
	id   int
	name string
	proc *Processor
	coro *sim.Coro
	fn   func(*Thread)
	rng  *sim.RNG

	state    State
	started  bool
	prio     int
	joiners  []*Thread
	blockGen uint64
	timedOut bool

	busy         sim.Time
	blockedAt    sim.Time
	blockedTotal sim.Time
	sliceLeft    sim.Time

	// prof is the thread's virtual-time attribution record, nil when the
	// system has no profiler (every ThreadProf method is nil-safe).
	prof *profile.ThreadProf
}

// ID returns the thread's fork-order index.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's scheduling state.
func (t *Thread) State() State { return t.state }

// Proc returns the processor the thread is pinned to.
func (t *Thread) Proc() *Processor { return t.proc }

// Node implements sim.Accessor: the memory node the thread executes on.
func (t *Thread) Node() int { return t.proc.id }

// System returns the owning thread system.
func (t *Thread) System() *System { return t.sys }

// Now reports the current virtual time.
func (t *Thread) Now() sim.Time { return t.sys.eng.Now() }

// Priority returns the thread's priority (higher is more urgent; used by
// priority lock schedulers, not by processor scheduling).
func (t *Thread) Priority() int { return t.prio }

// SetPriority sets the thread's priority.
func (t *Thread) SetPriority(p int) { t.prio = p }

// Rand returns the thread's private deterministic random stream, forked
// from the machine stream at first use in fork order.
func (t *Thread) Rand() *sim.RNG {
	if t.rng == nil {
		t.rng = t.sys.mach.RNG().Fork()
	}
	return t.rng
}

// Prof returns the thread's attribution record (nil when the system has
// no profiler; the nil record is safe to charge to).
func (t *Thread) Prof() *profile.ThreadProf { return t.prof }

// Busy reports total computation time this thread has charged.
func (t *Thread) Busy() sim.Time {
	t.sys.eng.SyncSpins()
	return t.busy
}

// BlockedTime reports total time this thread has spent blocked.
func (t *Thread) BlockedTime() sim.Time { return t.blockedTotal }

// mustBeRunning panics unless t is the current thread of its processor;
// catching misuse here keeps simulated interleavings honest.
func (t *Thread) mustBeRunning(op string) {
	if t.proc.current != t || t.state != StateRunning {
		panic(fmt.Sprintf("cthreads: %s called on %s thread %q that is not running", op, t.state, t.name))
	}
}

// Advance implements sim.Accessor: consume d of virtual time on the
// thread's processor. The processor remains occupied for the duration,
// except that with a machine quantum configured the thread is preempted
// (round-robin) whenever its slice expires while other threads are ready.
//
// The coro.Sleep calls below are the simulator's hottest self-wakeup
// sites and usually run inline (see sim.Coro.Sleep). Preemption is
// unaffected: the quantum loop re-checks sliceLeft after every Sleep
// regardless of which path it took, so a thread crossing a slice boundary
// is parked at exactly the same virtual time either way.
func (t *Thread) Advance(d sim.Time) {
	t.mustBeRunning("Advance")
	if d < 0 {
		d = 0
	}
	for {
		step, boundary := t.SpinAccrue(d)
		d -= step
		t.coro.Sleep(step)
		if boundary && t.SpinBoundary() {
			t.coro.Park()
			// sliceLeft was reset by dispatch.
		}
		if d <= 0 {
			return
		}
	}
}

// SpinAccrue implements sim.SpinContext: book up to d of computation
// (thread and processor busy time, timeslice consumption) and report the
// booked step plus whether the timeslice expired at its end. Advance is
// built on it, so the spin emulator and the ordinary accrual path can
// never disagree. It is an engine callback, not for simulated code.
func (t *Thread) SpinAccrue(d sim.Time) (step sim.Time, boundary bool) {
	q := t.sys.cfg.Quantum
	if q <= 0 {
		t.busy += d
		t.proc.busy += d
		return d, false
	}
	step = d
	if t.sliceLeft < step {
		step = t.sliceLeft
	}
	t.busy += step
	t.proc.busy += step
	t.sliceLeft -= step
	return step, t.sliceLeft <= 0
}

// SpinBoundary implements sim.SpinContext: handle an expired timeslice.
// With other threads ready the thread is preempted to the back of the
// ready queue (true — the caller must suspend until redispatch); alone
// on its processor it just starts a fresh slice (false). It is an engine
// callback, not for simulated code.
func (t *Thread) SpinBoundary() (descheduled bool) {
	if t.proc.QueueLen() > 0 {
		t.sys.stats.Preemptions++
		t.proc.enqueue(t)
		t.proc.release()
		return true
	}
	t.sliceLeft = t.sys.cfg.Quantum
	return false
}

// SpinBudget implements sim.SpinContext: the computation left in the
// current timeslice, or sim.MaxTime when preemption is off.
func (t *Thread) SpinBudget() sim.Time {
	if t.sys.cfg.Quantum <= 0 {
		return sim.MaxTime
	}
	return t.sliceLeft
}

// SpinUntil runs the busy-wait loop described by spec on this thread —
// see sim.SpinSpec for the loop shape and the contract its closures must
// satisfy. It charges exactly what the open-coded loop would (probe
// references, pauses, preemption at slice boundaries) while letting the
// engine batch futile iterations; see Coro.SpinUntil.
func (t *Thread) SpinUntil(spec *sim.SpinSpec) (iters int64, ok bool) {
	t.mustBeRunning("SpinUntil")
	if t.prof != nil && spec.Label != "" {
		t.prof.Push(t.Now(), spec.Label)
		iters, ok = t.coro.SpinUntil(t, spec)
		t.prof.Pop(t.Now(), spec.Label)
		return iters, ok
	}
	return t.coro.SpinUntil(t, spec)
}

// Compute consumes the cost of n abstract instruction steps.
func (t *Thread) Compute(steps int) {
	t.Advance(t.sys.mach.InstrCost(steps))
}

// Yield moves the thread to the back of its processor's ready queue and
// lets another thread run (after a context switch).
func (t *Thread) Yield() {
	t.mustBeRunning("Yield")
	t.proc.enqueue(t)
	t.proc.release()
	t.coro.Park()
}

// Block suspends the thread until another thread calls Wake on it.
func (t *Thread) Block() {
	t.mustBeRunning("Block")
	t.blockGen++
	t.state = StateBlocked
	t.blockedAt = t.sys.eng.Now()
	t.timedOut = false
	t.prof.SetBase(t.sys.eng.Now(), profile.BaseBlocked)
	t.sys.traceThread(trace.KindThreadBlock, t, "", 0)
	t.proc.release()
	t.coro.Park()
}

// BlockTimeout suspends the thread until Wake or until d elapses, and
// reports whether it timed out. This is the "conditional sleep" primitive
// adaptive locks use for their timeout attribute.
func (t *Thread) BlockTimeout(d sim.Time) (timedOut bool) {
	t.mustBeRunning("BlockTimeout")
	t.blockGen++
	gen := t.blockGen
	t.state = StateBlocked
	t.blockedAt = t.sys.eng.Now()
	t.timedOut = false
	t.prof.SetBase(t.sys.eng.Now(), profile.BaseBlocked)
	t.sys.traceThread(trace.KindThreadBlock, t, "", int64(d))
	t.sys.eng.After(d, func() {
		if t.state == StateBlocked && t.blockGen == gen {
			t.timedOut = true
			t.sys.stats.Timeouts++
			t.sys.ready(t)
		}
	})
	t.proc.release()
	t.coro.Park()
	return t.timedOut
}

// Wake makes the blocked thread target runnable, charging the caller the
// machine's wakeup cost (moving a thread to a — usually remote — ready
// queue is what makes blocking locks expensive to release). It reports
// whether target was actually blocked; a false return means target had
// already been woken (e.g. its timeout fired while the caller was paying
// the wakeup cost), and the caller's charge stands, as it would on real
// hardware.
func (t *Thread) Wake(target *Thread) bool {
	t.mustBeRunning("Wake")
	t.Advance(t.sys.cfg.Wakeup)
	if target.state != StateBlocked {
		return false
	}
	t.sys.ready(target)
	return true
}

// Join blocks until target's function has returned.
func (t *Thread) Join(target *Thread) {
	t.mustBeRunning("Join")
	if target.state == StateDone {
		return
	}
	target.joiners = append(target.joiners, t)
	t.Block()
}

// ready moves a blocked thread onto its processor's ready queue. It is the
// internal cost-free half of Wake, also used by timeouts and exit.
func (s *System) ready(target *Thread) {
	if target.state != StateBlocked {
		panic(fmt.Sprintf("cthreads: ready of %s thread %q", target.state, target.name))
	}
	s.stats.Wakeups++
	target.proc.enqueue(target)
	target.proc.maybeSchedule()
}

// exit finishes the thread: wakes joiners (paying wakeup cost for each) and
// releases the processor. Called by the fork wrapper when fn returns.
func (t *Thread) exit() {
	for _, j := range t.joiners {
		t.Advance(t.sys.cfg.Wakeup)
		if j.state == StateBlocked {
			t.sys.ready(j)
		}
	}
	t.joiners = nil
	t.state = StateDone
	t.prof.SetBase(t.sys.eng.Now(), profile.BaseDone)
	t.sys.traceThread(trace.KindThreadDone, t, "", 0)
	for _, fn := range t.sys.exitHooks {
		fn(t)
	}
	t.proc.release()
}
