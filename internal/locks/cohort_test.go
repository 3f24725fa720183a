package locks

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// cohortSys builds a multiprogrammed test machine: one processor per
// node with quantum preemption, so threads sharing a node actually spin
// on the node-local word while a same-node owner runs — the scenario
// intra-node handoff exists for.
func cohortSys(nodes int) *cthreads.System {
	return cthreads.New(sim.Config{
		Nodes:         nodes,
		LocalAccess:   10,
		RemoteAccess:  40,
		AtomicExtra:   5,
		Instr:         1,
		ContextSwitch: 100,
		Wakeup:        200,
		Quantum:       10 * sim.Microsecond,
		Seed:          1,
	})
}

// runCohortWorkload drives nodes × perNode threads through nIters
// contended critical sections on a cohort lock and returns it.
func runCohortWorkload(t *testing.T, l *CohortLock, sys *cthreads.System, nodes, perNode, nIters int, hold sim.Time) {
	t.Helper()
	for node := 0; node < nodes; node++ {
		for k := 0; k < perNode; k++ {
			sys.Fork(node, fmt.Sprintf("n%dw%d", node, k), func(th *cthreads.Thread) {
				for j := 0; j < nIters; j++ {
					l.Lock(th)
					th.Advance(hold)
					l.Unlock(th)
				}
			})
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCohortHandoffAccounting checks the cohort invariants over a
// contended multi-node run: every acquisition either took the global lock
// or received it by intra-node handoff; the fairness budget bounds the
// handoffs per global tenure; and keeping handoffs local keeps remote
// transfers well below what node-oblivious granting would produce.
func TestCohortHandoffAccounting(t *testing.T) {
	sys := cohortSys(2)
	l := NewCohortLock(sys, 0, "cohort")
	runCohortWorkload(t, l, sys, 2, 2, 25, 2*sim.Microsecond)

	st, cs := l.Stats(), l.Cohort()
	if st.Acquisitions != 100 {
		t.Fatalf("Acquisitions = %d, want 100", st.Acquisitions)
	}
	if cs.LocalHandoffs == 0 {
		t.Error("no intra-node handoffs on a workload with same-node waiters")
	}
	if got := cs.GlobalAcquires + cs.LocalHandoffs; got != st.Acquisitions {
		t.Errorf("GlobalAcquires(%d) + LocalHandoffs(%d) = %d, want Acquisitions = %d",
			cs.GlobalAcquires, cs.LocalHandoffs, got, st.Acquisitions)
	}
	if cs.LocalHandoffs > uint64(DefaultCohortBudget)*cs.GlobalAcquires {
		t.Errorf("LocalHandoffs = %d exceeds budget %d × GlobalAcquires %d",
			cs.LocalHandoffs, DefaultCohortBudget, cs.GlobalAcquires)
	}
	// Remote transfers happen only when the cohort changes nodes, i.e. at
	// most once per global tenure.
	if st.RemoteTransfers > cs.GlobalAcquires {
		t.Errorf("RemoteTransfers = %d > GlobalAcquires = %d", st.RemoteTransfers, cs.GlobalAcquires)
	}
	if st.RemoteTransfers >= st.Acquisitions/2 {
		t.Errorf("RemoteTransfers = %d of %d acquisitions — cohorting is not keeping the lock local",
			st.RemoteTransfers, st.Acquisitions)
	}
}

// TestCohortBudgetOne checks the budget knob bites: with a budget of 1 the
// lock must release the global word at least every other acquisition.
func TestCohortBudgetOne(t *testing.T) {
	sys := cohortSys(2)
	l := NewCohortLock(sys, 0, "b1")
	if err := l.Object().Apply(core.Decision{Attr: AttrCohortBudget, Value: 1}, core.OwnerSelf); err != nil {
		t.Fatal(err)
	}
	runCohortWorkload(t, l, sys, 2, 2, 25, 2*sim.Microsecond)
	cs := l.Cohort()
	if cs.LocalHandoffs > cs.GlobalAcquires {
		t.Errorf("budget 1: LocalHandoffs = %d > GlobalAcquires = %d", cs.LocalHandoffs, cs.GlobalAcquires)
	}
}

// TestCohortPolicyRetunesBudget installs an adaptation policy on the
// cohort lock's object and checks a contended run drives a ledger-visible
// budget reconfiguration through the ordinary feedback loop.
func TestCohortPolicyRetunesBudget(t *testing.T) {
	sys := cohortSys(2)
	led := core.NewLedger(0)
	sys.SetLedger(led)
	l := NewCohortLock(sys, 0, "tuned")
	// Contention observed → widen the budget to favor locality.
	l.Object().SetPolicy(core.PolicyFunc(func(s core.Sample, o *core.Object) []core.Decision {
		if s.Value > 0 && o.Attrs.MustGet(AttrCohortBudget) != 32 {
			return []core.Decision{{Attr: AttrCohortBudget, Value: 32}}
		}
		return nil
	}))
	runCohortWorkload(t, l, sys, 2, 2, 25, 2*sim.Microsecond)

	if got := l.Object().Attrs.MustGet(AttrCohortBudget); got != 32 {
		t.Errorf("budget after contended run = %d, want 32", got)
	}
	found := false
	for _, e := range led.Entries() {
		if e.Object == "tuned" && e.Kind == core.EntryApply && strings.Contains(e.Decision, AttrCohortBudget) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no cohort-budget apply entry in the adaptation ledger")
	}
}
