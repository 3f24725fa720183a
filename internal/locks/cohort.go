package locks

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// AttrCohortBudget is the cohort lock's fairness budget: the number of
// consecutive intra-node handoffs a cohort may perform before the global
// lock must be released to the other nodes. Mutable, so adaptation
// policies can trade locality against fairness at run time.
const AttrCohortBudget = "cohort-budget"

// DefaultCohortBudget is the fairness budget a cohort lock starts from.
const DefaultCohortBudget = 8

// CohortStats reports a cohort lock's handoff behaviour.
type CohortStats struct {
	// LocalHandoffs counts releases that handed the lock to a same-node
	// waiter with the global lock retained (no remote reference).
	LocalHandoffs uint64
	// GlobalReleases counts releases that freed the global lock (budget
	// exhausted or no local waiter).
	GlobalReleases uint64
	// GlobalAcquires counts acquisitions that took the global lock
	// directly rather than receiving it by intra-node handoff.
	GlobalAcquires uint64
}

// cohortNode is one node's slice of a cohort lock. Both cells live on that
// node, so a waiter's spinning and an intra-node handoff are all local
// references; only the global lock word crosses the remote latency.
type cohortNode struct {
	// flag is the node-local lock word.
	flag *sim.Cell
	// pass is the handoff flag: set by a releasing owner to tell the next
	// local-flag holder that the cohort still owns the global lock.
	pass *sim.Cell
	// spinners counts threads currently spinning on flag.
	spinners int
	// passes counts consecutive intra-node handoffs in the cohort's
	// current global tenure, bounded by the fairness budget.
	passes int64
	// localSpin is the spin spec for flag, built once.
	localSpin sim.SpinSpec
}

// CohortLock is a NUMA-hierarchical lock (Dice/Marathe/Shavit-style
// lock cohorting): one global lock word plus a local lock word and a pass
// flag per node. A thread first acquires its node's local lock (spinning
// on node-local memory), then either inherits the global lock from a
// same-node predecessor via the pass flag or competes for the global word.
// Release hands off within the releasing node while local waiters exist
// and the fairness budget allows, so the lock's state crosses the
// machine's 1:4 remote latency only when the cohort changes nodes.
//
// Waiters always spin (local spinning is the point of the design); the
// lock targets NUMA throughput, not multiprogrammed processors. All
// spinning goes through SpinUntil, so batched-spin emulation applies.
type CohortLock struct {
	base // base.flag is the global lock word on the home node
	obj  *core.Object
	// nodes holds every machine node's slice, preallocated at
	// construction in node order so cell creation is deterministic.
	nodes      []*cohortNode
	globalSpin sim.SpinSpec
	cstats     CohortStats
}

// NewCohortLock allocates a cohort lock whose global word lives on the
// given node, with local words on every machine node.
func NewCohortLock(sys *cthreads.System, node int, name string) *CohortLock {
	l := &CohortLock{base: newBase(sys, node, name)}
	l.obj = core.NewObject(name)
	l.obj.Attrs.Define(AttrCohortBudget, DefaultCohortBudget, true)
	// The customized lock monitor senses the waiter count on every other
	// release, so a policy (none installed by default) can retune the
	// fairness budget from observed contention.
	l.obj.Monitor.AddSensor(SensorWaiting, 2, func() int64 { return int64(l.spinners) })
	sys.WireObject(l.obj, name)
	m := sys.Machine()
	l.nodes = make([]*cohortNode, m.Nodes())
	for i := range l.nodes {
		n := &cohortNode{
			flag: m.NewCell(i, fmt.Sprintf("%s.local%d", name, i), 0),
			pass: m.NewCell(i, fmt.Sprintf("%s.pass%d", name, i), 0),
		}
		n.localSpin = l.tasSpin(n.flag, l.spinPause)
		l.nodes[i] = n
	}
	l.globalSpin = l.tasSpin(l.flag, l.spinPause)
	return l
}

// Object exposes the underlying adaptive object (the fairness-budget
// attribute, the waiting sensor) for inspection and reconfiguration.
func (l *CohortLock) Object() *core.Object { return l.obj }

// Cohort returns the accumulated handoff statistics.
func (l *CohortLock) Cohort() CohortStats { return l.cstats }

// Lock acquires the node-local lock, then the global lock — by handoff
// when a same-node predecessor left the pass flag set, by test-and-set
// otherwise. A thread must unlock on the node it locked from (threads are
// pinned to their processor's node, so this holds by construction).
func (l *CohortLock) Lock(t *cthreads.Thread) {
	start := t.Now()
	t.Compute(SpinLockSteps)
	n := l.nodes[t.Node()]
	l.observe(t, l.spinners)
	contended := false
	l.spinners++
	n.spinners++
	iters, _ := t.SpinUntil(&n.localSpin)
	n.spinners--
	l.spinners--
	l.stats.SpinIters += uint64(iters)
	if iters > 0 {
		contended = true
	}
	if n.pass.Load(t) != 0 {
		// Intra-node handoff: the cohort already owns the global lock.
		n.pass.Store(t, 0)
		contended = true
	} else {
		l.spinners++
		giters, _ := t.SpinUntil(&l.globalSpin)
		l.spinners--
		l.stats.SpinIters += uint64(giters)
		if giters > 0 {
			contended = true
		}
		l.cstats.GlobalAcquires++
		n.passes = 0
	}
	l.acquired(t, start, contended)
}

// Unlock releases the lock: hand off within the node while a local waiter
// exists and the fairness budget allows; otherwise free the global word
// (the release path's only possibly-remote reference) and reset the
// budget.
func (l *CohortLock) Unlock(t *cthreads.Thread) {
	l.checkOwner(t, "Unlock")
	l.unlockStart(t)
	t.Compute(SpinUnlockSteps)
	n := l.nodes[t.Node()]
	// The budget is cached in the node-local slice of the lock's state:
	// one local reference reads it.
	budget := l.obj.Attrs.MustGet(AttrCohortBudget)
	t.Advance(l.sys.Machine().AccessCost(t.Node(), t.Node()))
	l.sampleInline(t, l.obj, SensorWaiting)

	l.owner = nil
	l.traceRelease(t)
	if n.spinners > 0 && n.passes < budget {
		n.passes++
		l.cstats.LocalHandoffs++
		n.pass.Store(t, 1)
		n.flag.Store(t, 0)
	} else {
		n.passes = 0
		l.cstats.GlobalReleases++
		l.flag.Store(t, 0)
		n.flag.Store(t, 0)
	}
	l.unlockEnd(t)
}
