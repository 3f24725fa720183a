package locks

import (
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// SpinLock is the paper's primitive spin lock: a registered busy-wait lock
// (the registration work is what separates its latency from the raw
// atomior's). Waiters occupy their processor until they win the word.
type SpinLock struct {
	base
	// spin is the lock's busy-wait loop as a spec, built once so Lock
	// allocates nothing: an atomior probe of the lock word, a fixed pause
	// per futile iteration.
	spin sim.SpinSpec
}

// NewSpinLock allocates a spin lock on the given node.
func NewSpinLock(sys *cthreads.System, node int, name string, costs Costs) *SpinLock {
	l := &SpinLock{base: newBase(sys, node, name, costs)}
	l.spin = sim.SpinSpec{
		ProbeCell:   l.flag,
		ProbeAtomic: true,
		Probe:       l.tasProbe,
		PauseCost:   l.spinPause,
		MaxIters:    sim.SpinUnbounded,
		Label:       l.frameSpin,
	}
	return l
}

// Lock busy-waits until acquisition via SpinUntil. Each iteration charges
// a pause plus an atomic probe, exactly as the open-coded loop would;
// batched, futile probe bursts between genuine handoffs are
// fast-forwarded by the engine in one step.
func (l *SpinLock) Lock(t *cthreads.Thread) {
	start := t.Now()
	t.Compute(l.costs.SpinLockSteps)
	l.observe(t, l.spinners)
	l.spinners++
	iters, _ := t.SpinUntil(&l.spin)
	l.stats.SpinIters += uint64(iters)
	l.spinners--
	l.acquired(t, start, iters > 0)
}

// Unlock clears the word; any spinner's next test-and-set wins.
func (l *SpinLock) Unlock(t *cthreads.Thread) {
	l.checkOwner(t, "Unlock")
	l.unlockStart(t)
	t.Compute(l.costs.SpinUnlockSteps)
	l.owner = nil
	l.traceRelease(t)
	l.flag.Store(t, 0)
	l.unlockEnd(t)
}

// BackoffSpinLock is the spin-with-backoff variation of Anderson et al.
// [ALL89] as the paper describes it: a requester spins once and, if the
// lock is busy, backs off for a time proportional to the number of threads
// already waiting before testing again.
type BackoffSpinLock struct {
	base
	// spin covers the retest loop after the first backoff: an atomior
	// probe, then a backoff pause proportional to the current spinners.
	// The pause reads the spinner count, which another thread's Lock
	// changes without touching the word, so the spec is volatile.
	spin sim.SpinSpec
}

// NewBackoffSpinLock allocates a backoff spin lock on the given node.
func NewBackoffSpinLock(sys *cthreads.System, node int, name string, costs Costs) *BackoffSpinLock {
	l := &BackoffSpinLock{base: newBase(sys, node, name, costs)}
	l.spin = sim.SpinSpec{
		ProbeCell:   l.flag,
		ProbeAtomic: true,
		Probe:       l.tasProbe,
		PauseCost:   l.backoffPause,
		Volatile:    true,
		MaxIters:    sim.SpinUnbounded,
		Label:       l.frameSpin,
	}
	return l
}

// backoffPause is the proportional backoff charged after a futile retest.
func (l *BackoffSpinLock) backoffPause() sim.Time {
	return l.costs.BackoffUnit * sim.Time(l.spinners)
}

// Lock tests once, then alternates proportional backoff with retests. The
// backoff loop pauses first, so the initial backoff is charged open-coded
// and SpinUntil carries the retest-then-backoff tail.
func (l *BackoffSpinLock) Lock(t *cthreads.Thread) {
	start := t.Now()
	t.Compute(l.costs.SpinLockSteps)
	l.observe(t, l.spinners)
	if l.flag.AtomicOr(t, 1) == 0 {
		l.acquired(t, start, false)
		return
	}
	l.spinners++
	l.stats.SpinIters++
	t.Advance(l.backoffPause())
	iters, _ := t.SpinUntil(&l.spin)
	l.stats.SpinIters += uint64(iters)
	l.spinners--
	l.acquired(t, start, true)
}

// Unlock clears the word.
func (l *BackoffSpinLock) Unlock(t *cthreads.Thread) {
	l.checkOwner(t, "Unlock")
	l.unlockStart(t)
	t.Compute(l.costs.SpinUnlockSteps)
	l.owner = nil
	l.traceRelease(t)
	l.flag.Store(t, 0)
	l.unlockEnd(t)
}
