package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
)

// feedback visualizes one adaptive lock's feedback loop through a
// workload with three contention phases: a solo phase (the policy
// configures pure spin), an overload phase with long critical sections
// and many waiters (the policy backs off to pure blocking), and a light
// phase (the policy climbs back). It prints the spin-time attribute over
// virtual time, one row per monitor sample. Machine.Nodes defaults to 8.
func feedback(e Env) (Result, error) {
	procs := e.Machine.Nodes
	if procs == 0 {
		procs = 8
	}
	sys := cthreads.New(sim.Config{Nodes: procs})
	e.attach(sys)
	policy := core.SimpleAdapt{SpinAttr: locks.AttrSpinTime, WaitingThreshold: 2, Step: 10, MaxSpin: 100}
	l := locks.NewAdaptiveLock(sys, 0, "demo-lock", policy)

	// Tap the feedback loop: wrap the policy so each sample is printed
	// along with the decision it produced.
	var samples strings.Builder
	l.Object().SetPolicy(core.PolicyFunc(func(s core.Sample, o *core.Object) []core.Decision {
		ds := policy.React(s, o)
		spin := o.Attrs.MustGet(locks.AttrSpinTime)
		for _, d := range ds {
			if d.Attr == locks.AttrSpinTime {
				spin = d.Value
			}
		}
		fmt.Fprintf(&samples, "%-12s %-9d %-9d %s\n", sys.Now(), s.Value, spin, strings.Repeat("█", int(spin/2)))
		return ds
	}))

	phase := func(t *cthreads.Thread, iters int, cs, think sim.Time) {
		for i := 0; i < iters; i++ {
			l.Lock(t)
			t.Advance(cs)
			l.Unlock(t)
			t.Advance(think)
		}
	}
	// Phase 1: one thread, no contention.
	solo := sys.Fork(0, "solo", func(t *cthreads.Thread) {
		phase(t, 30, 5*sim.Microsecond, 50*sim.Microsecond)
	})
	// Phase 2: everyone hammers the lock with long critical sections.
	var stormers []*cthreads.Thread
	for i := 0; i < procs; i++ {
		stormers = append(stormers, sys.Fork(i, fmt.Sprintf("storm%d", i), func(t *cthreads.Thread) {
			t.Join(solo)
			phase(t, 20, 200*sim.Microsecond, 20*sim.Microsecond)
		}))
	}
	// Phase 3: light again.
	sys.Fork(0, "light", func(t *cthreads.Thread) {
		for _, s := range stormers {
			t.Join(s)
		}
		phase(t, 30, 5*sim.Microsecond, 50*sim.Microsecond)
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	var b strings.Builder
	b.WriteString("adaptive lock feedback loop: no-of-waiting-threads sample → spin-time decision\n\n")
	fmt.Fprintf(&b, "%-12s %-9s %-9s %s\n%s", "virtual time", "waiting", "spin-time", "", samples.String())
	st := l.Object().Stats()
	fmt.Fprintf(&b, "\npolicy decisions=%d applied=%d rejected=%d; reconfiguration cost=%s\n",
		st.Decisions, st.Applied, st.Rejected, l.Object().ReconfigCost())
	fmt.Fprintf(&b, "final configuration: %s\n", l.Object().Configuration())
	return Result{Text: b.String()}, nil
}
