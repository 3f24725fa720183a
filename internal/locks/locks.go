// Package locks implements the paper's family of multiprocessor locks on
// the simulated NUMA machine: spin and backoff-spin locks (the spin lock
// with the atomior step costs is the raw test-and-set lock), a blocking
// lock, a combined spin-then-block lock, a reconfigurable lock whose
// waiting policy and scheduler can be changed at run time, and the
// adaptive lock — a reconfigurable lock with a built-in monitor and the
// paper's simple adaptation policy (§4, §5) — plus the mutable, advisory,
// cohort and local-spin extensions and the adaptive barrier.
//
// The locks are built from one set of protocol steps on the shared base
// (§5.1's registration, acquisition and release components), each
// implemented once: sleep registers a requester, re-tests the word and
// sleeps unless a grant already arrived; grant frees the word and then
// picks a sleeper to wake; release clears the word; sampleInline runs the
// customized monitor in the unlocking thread; tasSpin builds the
// test-and-set busy-wait loop.
//
// Every lock charges its caller virtual time for the instructions and
// memory references its implementation would perform, calibrated (see
// costs.go) so that the microbenchmark tables of §5.2 reproduce in shape
// and rough magnitude.
package locks

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Lock is a mutual-exclusion lock usable from simulated threads.
// Lock blocks (by spinning, sleeping, or both, per the implementation)
// until the calling thread owns the lock; Unlock releases it and panics if
// the caller is not the owner — unlocking someone else's mutex is a bug in
// the simulated program, not a condition to handle.
type Lock interface {
	Name() string
	Lock(t *cthreads.Thread)
	Unlock(t *cthreads.Thread)
	Stats() Stats
}

// Stats aggregates a lock's activity over a run.
type Stats struct {
	// Acquisitions counts successful Lock calls.
	Acquisitions uint64
	// Contended counts acquisitions that found the lock busy.
	Contended uint64
	// Blocks counts times a thread slept while waiting.
	Blocks uint64
	// SpinIters counts spin-loop iterations across all threads.
	SpinIters uint64
	// MaxWaiting is the largest number of simultaneous waiters observed.
	MaxWaiting int
	// TotalWait is the summed time threads spent between requesting and
	// acquiring the lock.
	TotalWait sim.Time
	// RemoteTransfers counts acquisitions by a thread on a different node
	// than the previous owner — each one drags the lock's cache state
	// across the machine's remote-access latency. NUMA-aware locks
	// (CohortLock) exist to keep this number low.
	RemoteTransfers uint64
}

// Observer receives one event per Lock call at registration time: the
// current virtual time and the number of threads already waiting (the
// quantity plotted in the paper's Figures 4–9).
type Observer func(now sim.Time, waiting int)

// base carries the state shared by every lock implementation: the lock
// word (a cell on the lock's home node), ownership, the sleep queue, wait
// accounting, and the observer hook. Its methods are the lock protocol's
// shared steps (see the package comment).
type base struct {
	name string
	sys  *cthreads.System
	node int

	flag  *sim.Cell
	owner *cthreads.Thread

	spinners int       // threads currently in a spin loop
	q        waitQueue // registered sleepers (empty for the spin locks)
	stats    Stats
	observer Observer

	// Attribution frame labels, precomputed at construction so the
	// profiler emit sites allocate nothing. frameSpin doubles as the
	// SpinSpec.Label of the lock's busy-wait loops.
	frameLock   string
	frameUnlock string
	frameCS     string
	frameWait   string
	frameSpin   string
	frameAdapt  string
	// holdFrom is the acquisition instant of the current hold, feeding
	// the hold-time histogram at release (profiler-only state).
	holdFrom sim.Time
	// lastNode is the node of the previous owner (-1 before the first
	// acquisition), feeding Stats.RemoteTransfers.
	lastNode int
}

func newBase(sys *cthreads.System, node int, name string) base {
	return base{
		name:        name,
		sys:         sys,
		node:        node,
		flag:        sys.Machine().NewCell(node, name+".flag", 0),
		frameLock:   "Lock:" + name,
		frameUnlock: "Unlock:" + name,
		frameCS:     "cs:" + name,
		frameWait:   "wait:" + name,
		frameSpin:   "spin:" + name,
		frameAdapt:  "adapt:" + name,
		lastNode:    -1,
	}
}

// Name returns the lock's name.
func (b *base) Name() string { return b.name }

// Node returns the memory node the lock's state lives on.
func (b *base) Node() int { return b.node }

// Stats returns accumulated counters.
func (b *base) Stats() Stats { return b.stats }

// SetObserver installs the per-request observer (nil to remove).
func (b *base) SetObserver(o Observer) { b.observer = o }

// waiting reports the number of threads currently waiting for the lock:
// spinners plus registered sleepers.
func (b *base) waiting() int { return b.spinners + b.q.Len() }

// observe reports a lock request with the current waiter count. It also
// opens the request's attribution frame ("Lock:name"), which acquired
// closes — every Lock implementation calls the pair.
func (b *base) observe(t *cthreads.Thread, waiting int) {
	if waiting > b.stats.MaxWaiting {
		b.stats.MaxWaiting = waiting
	}
	if b.observer != nil {
		b.observer(t.Now(), waiting)
	}
	if p := t.Prof(); p != nil {
		p.Push(t.Now(), b.frameLock)
	}
	b.traceLock(t, trace.KindLockRequest, int64(waiting), 0)
}

// acquired finishes bookkeeping for a successful acquisition: it closes
// the "Lock:name" frame, opens the critical-section frame, and records the
// request-to-grant wait in the profiler's wait histogram.
func (b *base) acquired(t *cthreads.Thread, start sim.Time, wasContended bool) {
	b.owner = t
	b.stats.Acquisitions++
	if wasContended {
		b.stats.Contended++
	}
	if b.lastNode >= 0 && b.lastNode != t.Node() {
		b.stats.RemoteTransfers++
	}
	b.lastNode = t.Node()
	wait := t.Now() - start
	b.stats.TotalWait += wait
	if p := t.Prof(); p != nil {
		now := t.Now()
		p.Pop(now, b.frameLock)
		p.Push(now, b.frameCS)
		b.sys.Profiler().RecordWait(b.name, wait)
		b.holdFrom = now
	}
	var contended int64
	if wasContended {
		contended = 1
	}
	b.traceLock(t, trace.KindLockAcquire, int64(wait), contended)
}

// unlockStart opens the release's attribution frame: the critical section
// ends here (feeding the hold-time histogram) and the "Unlock:name" frame
// absorbs the release path's charges. Every Unlock implementation calls
// it on entry and unlockEnd on every exit.
func (b *base) unlockStart(t *cthreads.Thread) {
	if p := t.Prof(); p != nil {
		now := t.Now()
		p.Pop(now, b.frameCS)
		p.Push(now, b.frameUnlock)
		b.sys.Profiler().RecordHold(b.name, now-b.holdFrom)
	}
}

// unlockEnd closes the release's attribution frame.
func (b *base) unlockEnd(t *cthreads.Thread) {
	if p := t.Prof(); p != nil {
		p.Pop(t.Now(), b.frameUnlock)
	}
}

// waitStart/waitEnd bracket a requester's sleep on the lock with the
// "wait:name" attribution frame (inside the request frame).
func (b *base) waitStart(t *cthreads.Thread) {
	if p := t.Prof(); p != nil {
		p.Push(t.Now(), b.frameWait)
	}
}

func (b *base) waitEnd(t *cthreads.Thread) {
	if p := t.Prof(); p != nil {
		p.Pop(t.Now(), b.frameWait)
	}
}

// traceLock records one lock event against the calling thread. Free when
// no tracer is attached.
func (b *base) traceLock(t *cthreads.Thread, kind trace.Kind, a, v int64) {
	tr := b.sys.Tracer()
	if tr == nil {
		return
	}
	tr.Emit(trace.Event{
		At: t.Now(), Kind: kind,
		Proc: int32(t.Node()), Thread: int32(t.ID()),
		Name: b.name, A: a, B: v,
	})
}

// traceRelease records the lock's release. Implementations call it the
// moment ownership is surrendered — before any successor can observe the
// freed lock — so hold spans in the trace never overlap.
func (b *base) traceRelease(t *cthreads.Thread) {
	b.traceLock(t, trace.KindLockRelease, 0, 0)
}

// traceBlocked records a requester going to sleep on the lock.
func (b *base) traceBlocked(t *cthreads.Thread) {
	b.traceLock(t, trace.KindLockBlocked, 0, 0)
}

// checkOwner panics unless t owns the lock.
func (b *base) checkOwner(t *cthreads.Thread, op string) {
	if b.owner != t {
		ownerName := "<none>"
		if b.owner != nil {
			ownerName = b.owner.Name()
		}
		panic(fmt.Sprintf("locks: %s of %q by %q, owner is %s", op, b.name, t.Name(), ownerName))
	}
}

// tasSpin builds the test-and-set family's busy-wait loop on word: an
// atomior probe (a futile one sets no new bits, satisfying the busy-wait
// contract sim.SpinSpec requires), pause per futile iteration, unbounded.
// Callers that bound a phase copy the spec and set MaxIters.
func (b *base) tasSpin(word *sim.Cell, pause func() sim.Time) sim.SpinSpec {
	return sim.SpinSpec{
		ProbeCell:   word,
		ProbeAtomic: true,
		Probe: func() bool {
			old := word.Peek()
			word.Poke(old | 1)
			return old == 0
		},
		PauseCost: pause,
		MaxIters:  sim.SpinUnbounded,
		Label:     b.frameSpin,
	}
}

// spinPause is the spin-spec pause shared by the fixed-pause spin loops.
func (b *base) spinPause() sim.Time {
	return b.sys.Machine().InstrCost(SpinPauseSteps)
}

// release is the whole Unlock of the spin locks: steps of release work,
// then the word is cleared and any spinner's next test-and-set wins. They
// never register sleepers, so grant only frees the word.
func (b *base) release(t *cthreads.Thread, steps int) {
	b.checkOwner(t, "Unlock")
	b.unlockStart(t)
	t.Compute(steps)
	b.grant(t, SchedFCFS, nil, 0)
	b.unlockEnd(t)
}

// sampleInline runs the closely-coupled customized lock monitor in the
// unlocking thread: probe sensor of obj and, when the probe fires,
// charge collecting the sample and running the adaptation policy (read
// the sensed state, write the attribute) under the "adapt:name" frame.
func (b *base) sampleInline(t *cthreads.Thread, obj *core.Object, sensor string) {
	if p := t.Prof(); p != nil {
		p.Push(t.Now(), b.frameAdapt)
	}
	if _, ok := obj.Monitor.Probe(sensor); ok {
		t.Compute(MonitorSampleSteps)
		b.chargeAccesses(t, 2)
	}
	if p := t.Prof(); p != nil {
		p.Pop(t.Now(), b.frameAdapt)
	}
}

// chargeAccesses charges t the cost of n plain references to the lock's
// home node.
func (b *base) chargeAccesses(t *cthreads.Thread, n int) {
	if n <= 0 {
		return
	}
	t.Advance(sim.Time(n) * b.sys.Machine().AccessCost(t.Node(), b.node))
}
