package locks

import (
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// SpinLock is the paper's primitive spin lock: a registered busy-wait lock
// (the registration work is what separates its latency from the raw
// atomior's). Waiters occupy their processor until they win the word.
// With the atomior step costs it is the rawest lock (NewTASLock).
type SpinLock struct {
	base
	// lockSteps and unlockSteps are the lock and unlock call overheads.
	lockSteps, unlockSteps int
	// spin is the lock's busy-wait loop as a spec, built once so Lock
	// allocates nothing.
	spin sim.SpinSpec
}

// NewSpinLock allocates a spin lock on the given node.
func NewSpinLock(sys *cthreads.System, node int, name string) *SpinLock {
	return newSpinLock(sys, node, name, SpinLockSteps, SpinUnlockSteps)
}

// NewTASLock allocates the rawest lock on the given node: a bare atomior
// (test-and-set) loop with no registration work — Table 4's "atomior"
// row, the latency floor every other lock is measured against.
func NewTASLock(sys *cthreads.System, node int, name string) *SpinLock {
	return newSpinLock(sys, node, name, TASLockSteps, TASUnlockSteps)
}

func newSpinLock(sys *cthreads.System, node int, name string, lockSteps, unlockSteps int) *SpinLock {
	l := &SpinLock{base: newBase(sys, node, name), lockSteps: lockSteps, unlockSteps: unlockSteps}
	l.spin = l.tasSpin(l.flag, l.spinPause)
	return l
}

// Lock busy-waits until acquisition via SpinUntil. Each iteration charges
// a pause plus an atomic probe, exactly as the open-coded loop would;
// batched, futile probe bursts between genuine handoffs are
// fast-forwarded by the engine in one step, and an uncontended
// acquisition costs a single inline-accrued probe.
func (l *SpinLock) Lock(t *cthreads.Thread) {
	start := t.Now()
	t.Compute(l.lockSteps)
	l.observe(t, l.spinners)
	l.spinners++
	iters, _ := t.SpinUntil(&l.spin)
	l.stats.SpinIters += uint64(iters)
	l.spinners--
	l.acquired(t, start, iters > 0)
}

// Unlock clears the word; any spinner's next test-and-set wins.
func (l *SpinLock) Unlock(t *cthreads.Thread) { l.release(t, l.unlockSteps) }

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
func NewBackoffSpinLock(sys *cthreads.System, node int, name string) *BackoffSpinLock {
	l := &BackoffSpinLock{base: newBase(sys, node, name)}
	l.spin = l.tasSpin(l.flag, l.backoffPause)
	l.spin.Volatile = true
	return l
}

// backoffPause is the proportional backoff charged after a futile retest.
func (l *BackoffSpinLock) backoffPause() sim.Time {
	return BackoffUnit * sim.Time(l.spinners)
}

// Lock tests once, then alternates proportional backoff with retests. The
// backoff loop pauses first, so the initial backoff is charged open-coded
// and SpinUntil carries the retest-then-backoff tail.
func (l *BackoffSpinLock) Lock(t *cthreads.Thread) {
	start := t.Now()
	t.Compute(SpinLockSteps)
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
func (l *BackoffSpinLock) Unlock(t *cthreads.Thread) { l.release(t, SpinUnlockSteps) }
