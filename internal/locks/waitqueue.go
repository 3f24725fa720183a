package locks

import (
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// waiter is one registered sleeping requester. granted marks handoff: the
// releasing thread may grant the lock to a waiter that has registered but
// not yet gone to sleep; the waiter notices and skips sleeping.
type waiter struct {
	t        *cthreads.Thread
	granted  bool
	enqueued sim.Time
}

// waitQueue is the registration component of a lock's scheduler: an
// ordered set of sleeping waiters from which the release component picks a
// successor according to the installed scheduling variant.
type waitQueue struct {
	ws []*waiter
}

// Len reports the number of registered waiters.
func (q *waitQueue) Len() int { return len(q.ws) }

// enqueue registers t and returns its record.
func (q *waitQueue) enqueue(t *cthreads.Thread) *waiter {
	w := &waiter{t: t, enqueued: t.Now()}
	q.ws = append(q.ws, w)
	return w
}

// remove deletes the specific record (a waiter that acquired the lock by
// retry, or abandoned the queue on timeout). It reports whether the record
// was present.
func (q *waitQueue) remove(w *waiter) bool {
	for i, x := range q.ws {
		if x == w {
			q.ws = append(q.ws[:i], q.ws[i+1:]...)
			return true
		}
	}
	return false
}

// Scheduler variant names for the reconfigurable lock's release component.
const (
	SchedFCFS     = "fcfs"
	SchedPriority = "priority"
	SchedHandoff  = "handoff"
)

// pick removes and returns the next waiter according to the scheduling
// variant. successor is the handoff designation (may be nil). Returns nil
// when the queue is empty.
func (q *waitQueue) pick(variant string, successor *cthreads.Thread) *waiter {
	if len(q.ws) == 0 {
		return nil
	}
	idx := 0
	switch variant {
	case SchedPriority:
		for i, w := range q.ws {
			if w.t.Priority() > q.ws[idx].t.Priority() {
				idx = i
			}
		}
	case SchedHandoff:
		if successor != nil {
			for i, w := range q.ws {
				if w.t == successor {
					idx = i
					break
				}
			}
		}
	}
	w := q.ws[idx]
	q.ws = append(q.ws[:idx], q.ws[idx+1:]...)
	return w
}

// sleep is the registration step of every sleeping lock, entered after
// the caller found the word held: register in the queue, then re-test the
// word in case it was freed while registering. It reports true when the
// re-test took the lock. Otherwise the caller sleeps — unless a grant
// already arrived between registering and sleeping — bounded by timeout
// when it is positive; a waiter that timed out without a grant leaves the
// queue. Stats.Blocks and KindLockBlocked count only real sleeps. On a
// false return the caller has paid the post-wake steps and either owns
// the lock by handoff (BlockingLock) or must re-contend for it: a grant
// frees the word, so a running thread may have barged in the wakeup
// window.
func (b *base) sleep(t *cthreads.Thread, timeout sim.Time) (took bool) {
	w := b.q.enqueue(t)
	b.chargeAccesses(t, QueueOpAccesses)
	if b.flag.AtomicOr(t, 1) == 0 {
		b.q.remove(w)
		b.chargeAccesses(t, QueueOpAccesses)
		return true
	}
	if !w.granted {
		b.stats.Blocks++
		b.traceBlocked(t)
		b.waitStart(t)
		timedOut := false
		if timeout > 0 {
			timedOut = t.BlockTimeout(timeout)
		} else {
			t.Block()
		}
		b.waitEnd(t)
		if timedOut && !w.granted {
			b.q.remove(w)
			b.chargeAccesses(t, QueueOpAccesses)
		}
	}
	t.Compute(PostWakeSteps)
	return false
}

// grant is the release component of the locks whose word is cleared on
// release: surrender ownership, free the word FIRST, and only then let
// the scheduling variant pick a sleeper to wake, charging extraSteps of
// release-component work for the grant (none when zero). A requester that
// registered and re-tested while the store was in flight is therefore
// visible to the pick, so no sleeper is ever stranded. Freeing before
// waking also lets a spinning requester barge during the wakeup window —
// which is what lets a combined lock's spin phase catch the lock at all.
func (b *base) grant(t *cthreads.Thread, variant string, successor *cthreads.Thread, extraSteps int) {
	b.owner = nil
	b.traceRelease(t)
	b.flag.Store(t, 0)
	w := b.q.pick(variant, successor)
	if w == nil {
		return
	}
	if extraSteps > 0 {
		t.Compute(extraSteps)
	}
	w.granted = true
	t.Wake(w.t)
}
