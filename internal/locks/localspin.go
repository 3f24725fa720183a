package locks

import (
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// LocalSpinLock is a queue lock in the MCS style (Mellor-Crummey & Scott,
// 1991): each waiter spins on a flag in its *own* memory module, and the
// releaser writes that flag directly. It is the "distributed"
// representation of a lock the paper's §2 alludes to when discussing
// re-targeting lock implementations to different architectural platforms —
// on a machine whose memory modules serialize accesses
// (sim.Config.ModuleService), a centralized test-and-set lock's spinners
// flood the lock word's module and slow down the very release they are
// waiting for, while this lock's spins stay local.
type LocalSpinLock struct {
	base
	// tail mirrors the tail word's contents (which qnode, if any, is at
	// the queue's end); the cost of updating it is charged via tailCell.
	tail     *qnode
	tailCell *sim.Cell
	nodes    map[*cthreads.Thread]*qnode
}

// qnode is a per-thread queue record; wait lives on the thread's own node
// so spinning on it is local.
type qnode struct {
	t    *cthreads.Thread
	wait *sim.Cell
	next *qnode
	// spin (the waiter's local poll of wait) and link (the releaser's
	// wait for a mid-enqueue successor's next pointer) are the record's
	// two busy-wait loops as specs, built once per qnode.
	spin sim.SpinSpec
	link sim.SpinSpec
}

// NewLocalSpinLock allocates an MCS-style queue lock whose tail word lives
// on the given node. Queue records are released as their threads exit, so
// a run that churns through short-lived threads does not accumulate one
// qnode (and one simulated cell) per thread that ever touched the lock.
func NewLocalSpinLock(sys *cthreads.System, node int, name string) *LocalSpinLock {
	l := &LocalSpinLock{
		base:  newBase(sys, node, name),
		nodes: make(map[*cthreads.Thread]*qnode),
	}
	l.tailCell = sys.Machine().NewCell(node, name+".tail", 0)
	sys.OnThreadExit(func(t *cthreads.Thread) { delete(l.nodes, t) })
	return l
}

// qnodeFor returns (allocating on first use) the caller's queue record.
func (l *LocalSpinLock) qnodeFor(t *cthreads.Thread) *qnode {
	qn, ok := l.nodes[t]
	if !ok {
		qn = &qnode{t: t, wait: l.sys.Machine().NewCell(t.Node(), l.name+".wait."+t.Name(), 0)}
		qn.spin = sim.SpinSpec{
			ProbeCell: qn.wait,
			Probe:     func() bool { return qn.wait.Peek() == 0 },
			PauseCost: l.spinPause,
			MaxIters:  sim.SpinUnbounded,
			Label:     l.frameSpin,
		}
		qn.link = sim.SpinSpec{
			Probe:     func() bool { return qn.next != nil },
			PauseCost: l.spinPause,
			MaxIters:  sim.SpinUnbounded,
			Label:     l.frameSpin + ".link",
		}
		l.nodes[t] = qn
	}
	return qn
}

// retained reports how many queue records the lock currently holds (for
// the churn regression test).
func (l *LocalSpinLock) retained() int { return len(l.nodes) }

// Lock enqueues the caller's qnode with an atomic fetch-and-store on the
// tail word, links behind the predecessor, and spins on its own local
// flag until the predecessor hands over.
func (l *LocalSpinLock) Lock(t *cthreads.Thread) {
	start := t.Now()
	t.Compute(SpinLockSteps)
	l.observe(t, l.spinners)
	qn := l.qnodeFor(t)
	qn.next = nil
	qn.wait.Store(t, 1) // local write

	// fetch-and-store tail ← qn (one RMW on the lock's home node).
	l.tailCell.AtomicOr(t, 1) // charge the RMW; the value mirror is below
	pred := l.tail
	l.tail = qn
	if pred == nil {
		l.acquired(t, start, false)
		return
	}
	l.spinners++
	// Link behind the predecessor: one reference to its node.
	t.Advance(l.sys.Machine().AccessCost(t.Node(), pred.t.Node()))
	pred.next = qn
	// LOCAL spin: cheap probes of the waiter's own module; the engine
	// batches the futile probes between genuine handoffs.
	iters, _ := t.SpinUntil(&qn.spin)
	l.stats.SpinIters += uint64(iters)
	l.spinners--
	l.acquired(t, start, true)
}

// Unlock hands the lock to the successor by clearing its local flag, or
// resets the tail when no one waits.
func (l *LocalSpinLock) Unlock(t *cthreads.Thread) {
	l.checkOwner(t, "Unlock")
	l.unlockStart(t)
	defer l.unlockEnd(t) // the no-successor path has an early exit
	t.Compute(SpinUnlockSteps)
	qn := l.qnodeFor(t)
	l.owner = nil
	l.traceRelease(t)
	if qn.next == nil {
		// No known successor: try to swing tail back to nil (one RMW).
		l.tailCell.AtomicOr(t, 1)
		if l.tail == qn {
			l.tail = nil
			return
		}
		// A successor is mid-enqueue: wait for its link to appear (an
		// uncharged probe of plain state, one pause per futile check).
		t.SpinUntil(&qn.link)
	}
	// Hand over: one write into the successor's local module.
	next := qn.next
	qn.next = nil
	next.wait.Store(t, 0)
}
