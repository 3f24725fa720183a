package active

import (
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
)

// Future is the rendezvous for one asynchronously submitted method. It is
// resolved by whichever combiner executes the body; the submitter (or any
// single other thread) may Wait for it, Poll it, or ignore it entirely.
//
// A future supports at most one waiter at a time — the submission model
// is one caller per method call, as in the Cthreads fork/join it mirrors.
type Future struct {
	m         *Monitor
	body      func(*cthreads.Thread)
	submitted sim.Time
	// done flips exactly once, set by the combiner in the same
	// cooperatively-atomic step that reads waiter — the pairing that
	// makes the check-then-block below race-free.
	done   bool
	waiter *cthreads.Thread
	// server records the combiner variant installed at submit time:
	// a server-mode waiter always blocks, a flat-mode waiter helps
	// combine first.
	server bool
}

// Done reports whether the method has executed. It is a free diagnostic
// read (no simulated charge); simulated code deciding on it should use
// Poll.
func (f *Future) Done() bool { return f.done }

// Poll checks the future with the simulated cost of one flag read from
// the monitor's home node.
func (f *Future) Poll(t *cthreads.Thread) bool {
	t.Compute(futurePollSteps)
	f.m.chargeAccesses(t, 1)
	return f.done
}

// Wait blocks the calling thread until the method has executed, charging
// the wait bookkeeping and attributing blocked time to the
// "future:<name>" frame.
//
// In flat-combining mode an incomplete future means either another
// combiner is mid-drain or the election is free; Wait helps: it attempts
// the election and, on winning, drains the queue itself (executing its
// own method along the way). Only when another combiner holds the
// election does it block — and the combiner's done-then-wake pairs with
// the check-then-block here, so the wakeup cannot be lost.
func (f *Future) Wait(t *cthreads.Thread) {
	t.Compute(futureWaitSteps)
	f.m.chargeAccesses(t, 1) // read the done flag
	if f.done {
		return
	}
	if f.server {
		f.block(t)
		return
	}
	for !f.done {
		if f.m.election.AtomicOr(t, 1) == 0 {
			f.m.combineElected(t)
			continue
		}
		// Another combiner is draining; it must execute this future
		// before it can observe an empty queue, so blocking is safe.
		f.block(t)
	}
}

// block registers the thread as the future's waiter and suspends it. The
// done re-check and the registration are one cooperatively-atomic step.
func (f *Future) block(t *cthreads.Thread) {
	if f.done {
		return
	}
	if p := t.Prof(); p != nil {
		p.Push(t.Now(), f.m.frameFuture)
	}
	if !f.done {
		f.waiter = t
		t.Block()
		t.Compute(locks.PostWakeSteps)
	}
	if p := t.Prof(); p != nil {
		p.Pop(t.Now(), f.m.frameFuture)
	}
}
