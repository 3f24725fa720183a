package locks

import "repro/internal/cthreads"

// BlockingLock is the pure sleeping lock: a busy requester registers in the
// wait queue and blocks; release hands the lock directly to the FCFS head
// and pays the wakeup cost. Its lock and unlock latencies are the highest
// of the family (Tables 4–6), but waiters consume no processor cycles —
// which is exactly what multiprogrammed workloads need (§2, Figure 1).
type BlockingLock struct {
	base
}

// NewBlockingLock allocates a blocking lock on the given node.
func NewBlockingLock(sys *cthreads.System, node int, name string) *BlockingLock {
	return &BlockingLock{base: newBase(sys, node, name)}
}

// Lock acquires the lock, sleeping if it is busy. A sleeper is woken by
// direct handoff — the releaser leaves the word set and makes it the
// owner, in FCFS order — so it never re-contends.
func (l *BlockingLock) Lock(t *cthreads.Thread) {
	start := t.Now()
	t.Compute(BlockLockSteps)
	l.observe(t, l.waiting())
	if l.flag.AtomicOr(t, 1) == 0 {
		l.acquired(t, start, false)
		return
	}
	l.sleep(t, 0)
	l.acquired(t, start, true)
}

// Unlock releases with direct handoff (the release component "grants new
// threads access to the lock upon its release", §5.1): the first waiter
// becomes the owner and the word stays set, so the lock's idle time is the
// full wakeup-and-dispatch path — the cost Table 6 measures. When nobody
// waits, the word is cleared; because a requester may have registered and
// failed its re-test while the clearing store was in flight, the queue is
// re-checked afterwards and the word reclaimed to hand off if so — no
// sleeper is ever stranded.
func (l *BlockingLock) Unlock(t *cthreads.Thread) {
	l.checkOwner(t, "Unlock")
	l.unlockStart(t)
	defer l.unlockEnd(t) // the handoff loop has several exits
	t.Compute(BlockUnlockSteps)
	l.chargeAccesses(t, 1) // inspect the queue head
	l.owner = nil
	l.traceRelease(t)
	for {
		if w := l.q.pick(SchedFCFS, nil); w != nil {
			w.granted = true
			l.owner = w.t // handoff: the word stays set
			t.Wake(w.t)
			return
		}
		l.flag.Store(t, 0)
		l.chargeAccesses(t, 1)
		if l.q.Len() == 0 {
			return
		}
		// A requester slipped into the queue while the store was in
		// flight; reclaim the word and serve it. A failed reclaim means a
		// new owner acquired the freed word, and its release will serve
		// the queue.
		if l.flag.AtomicOr(t, 1) != 0 {
			return
		}
	}
}
