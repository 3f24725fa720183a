package locks

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestAdaptiveBarrierReleasesTogether(t *testing.T) {
	sys := testSys(4)
	b := NewAdaptiveBarrier(sys, "bar", 4, nil)
	var releases []sim.Time
	for i := 0; i < 4; i++ {
		delay := sim.Time((i + 1) * 20_000)
		sys.Fork(i, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			th.Advance(delay)
			b.Arrive(th)
			releases = append(releases, th.Now())
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, r := range releases {
		if r < 80_000 {
			t.Fatalf("release at %v before the last arrival (80µs)", r)
		}
	}
	trips, _, _ := b.Stats()
	if trips != 1 {
		t.Fatalf("trips = %d, want 1", trips)
	}
}

func TestAdaptiveBarrierReusable(t *testing.T) {
	sys := testSys(3)
	b := NewAdaptiveBarrier(sys, "bar", 3, nil)
	phases := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		sys.Fork(i, "w", func(th *cthreads.Thread) {
			for p := 0; p < 5; p++ {
				th.Advance(sim.Time(th.Rand().Intn(20_000)))
				b.Arrive(th)
				phases[i]++
				for j := range phases {
					if phases[j] < phases[i]-1 || phases[j] > phases[i]+1 {
						t.Errorf("phase skew: %v", phases)
					}
				}
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	trips, _, _ := b.Stats()
	if trips != 5 {
		t.Fatalf("trips = %d, want 5", trips)
	}
}

func TestAdaptiveBarrierConvergesToSpinWhenProcessorsIdle(t *testing.T) {
	sys := testSys(4)
	b := NewAdaptiveBarrier(sys, "bar", 4, nil)
	for i := 0; i < 4; i++ {
		sys.Fork(i, "w", func(th *cthreads.Thread) {
			for p := 0; p < 20; p++ {
				th.Advance(sim.Time(th.Rand().Intn(5000)))
				b.Arrive(th)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	pol := b.Object().Policy().(BarrierReadyPolicy)
	if got := b.Object().Attrs.MustGet(BarrierAttrSpin); got != pol.MaxSpin {
		t.Fatalf("spin budget = %d after idle-processor run, want MaxSpin %d", got, pol.MaxSpin)
	}
}

// TestAdaptiveBarrierTracesFeedbackLoop checks that a traced barrier's
// feedback loop reaches the tracer like every other adaptive object's:
// one KindSample per sample and one KindReconfig per applied decision,
// matching the ledger entry for entry.
func TestAdaptiveBarrierTracesFeedbackLoop(t *testing.T) {
	sys := testSys(4)
	tr := trace.New(1 << 14)
	sys.SetTracer(tr)
	sys.SetLedger(core.NewLedger(0))
	b := NewAdaptiveBarrier(sys, "bar", 4, nil)
	for i := 0; i < 4; i++ {
		sys.Fork(i, "w", func(th *cthreads.Thread) {
			for p := 0; p < 20; p++ {
				th.Advance(sim.Time(th.Rand().Intn(5000)))
				b.Arrive(th)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var samples, reconfigs, ledgerSamples, ledgerApplies int
	for _, ev := range tr.Events() {
		switch {
		case ev.Name != "bar":
		case ev.Kind == trace.KindSample:
			samples++
		case ev.Kind == trace.KindReconfig:
			reconfigs++
		}
	}
	for _, e := range sys.Ledger().Entries() {
		switch {
		case e.Object != "bar":
		case e.Kind == core.EntrySample:
			ledgerSamples++
		case e.Kind == core.EntryApply && e.Err == "":
			ledgerApplies++
		}
	}
	if reconfigs == 0 {
		t.Fatal("traced barrier run recorded no KindReconfig events")
	}
	if samples != ledgerSamples || reconfigs != ledgerApplies {
		t.Errorf("trace has %d samples and %d reconfigs, ledger has %d and %d",
			samples, reconfigs, ledgerSamples, ledgerApplies)
	}
}

func TestAdaptiveBarrierCollapsesWhenCoRunnable(t *testing.T) {
	cfg := sim.Config{
		Nodes: 2, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
		Instr: 1, ContextSwitch: 100, Wakeup: 200, Seed: 1,
		Quantum: 50_000,
	}
	sys := cthreads.New(cfg)
	b := NewAdaptiveBarrier(sys, "bar", 4, nil)
	// Four workers on two processors: arrivals almost always leave a
	// co-runnable sibling in the ready queue.
	for i := 0; i < 4; i++ {
		sys.Fork(i%2, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for p := 0; p < 20; p++ {
				th.Advance(sim.Time(20_000 + th.Rand().Intn(20_000)))
				b.Arrive(th)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	pol := b.Object().Policy().(BarrierReadyPolicy)
	if got := b.Object().Attrs.MustGet(BarrierAttrSpin); got != pol.GraceSpin {
		t.Fatalf("spin budget = %d under multiprogramming, want GraceSpin %d", got, pol.GraceSpin)
	}
	if _, blocks, _ := b.Stats(); blocks == 0 {
		t.Fatal("no arrival ever slept under multiprogramming")
	}
}

func TestAdaptiveBarrierZeroPartiesPanics(t *testing.T) {
	sys := testSys(1)
	defer func() {
		if recover() == nil {
			t.Fatal("0-party barrier did not panic")
		}
	}()
	NewAdaptiveBarrier(sys, "bad", 0, nil)
}
