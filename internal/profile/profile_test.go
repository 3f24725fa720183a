// Tests of the attribution profiler against a live thread package: the
// conservation invariant (every tick of a thread's existence is charged
// exactly once) and byte-identical exports across the engine's reference
// modes. The scripted golden tests of the exporters live in
// export_test.go; this file drives real simulations, so it uses an
// external test package (cthreads and locks import profile's host
// package, cthreads, which would cycle otherwise).
package profile_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// runWorkload drives a contended mixed-lock workload — adaptive (with a
// live policy feeding the ledger), blocking, MCS, and an adaptive barrier
// — under multiprogramming, with a profiler and ledger attached.
// configure, when non-nil, flips engine reference modes before the run.
func runWorkload(t *testing.T, configure func(*sim.Engine)) (*profile.Profiler, *core.Ledger, *cthreads.System) {
	t.Helper()
	const procs, workers, iters = 4, 8, 6
	prof := profile.New()
	led := core.NewLedger(core.DefaultLedgerCapacity)
	sys := cthreads.New(sim.Config{Nodes: procs, Quantum: 500 * sim.Microsecond})
	sys.SetProfiler(prof)
	sys.SetLedger(led)
	if configure != nil {
		configure(sys.Engine())
	}
	policy := core.SimpleAdapt{SpinAttr: locks.AttrSpinTime, WaitingThreshold: 2, Step: 10, MaxSpin: 100}
	al := locks.NewAdaptiveLock(sys, 0, "alock", policy)
	bl := locks.NewBlockingLock(sys, 1, "block")
	ml := locks.NewLocalSpinLock(sys, 2, "mcs")
	bar := locks.NewAdaptiveBarrier(sys, "bar", workers, nil)
	for i := 0; i < workers; i++ {
		sys.Fork(i%procs, fmt.Sprintf("w%d", i), func(t *cthreads.Thread) {
			for j := 0; j < iters; j++ {
				al.Lock(t)
				t.Advance(20 * sim.Microsecond)
				al.Unlock(t)
				bl.Lock(t)
				t.Advance(5 * sim.Microsecond)
				bl.Unlock(t)
				ml.Lock(t)
				t.Advance(2 * sim.Microsecond)
				ml.Unlock(t)
				t.Advance(30 * sim.Microsecond)
				bar.Arrive(t)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return prof, led, sys
}

// TestConservation pins the profiler's core claim: after the run, every
// thread's charged total equals exactly the virtual time between its
// registration and the end of the run — no tick lost, none double-counted,
// including the time absorbed by batched spin fast-forwards.
func TestConservation(t *testing.T) {
	prof, _, sys := runWorkload(t, nil)
	end := sys.Now()
	if len(prof.Threads()) == 0 {
		t.Fatal("no threads registered")
	}
	for _, tp := range prof.Threads() {
		if got, want := tp.Total(), end-tp.Registered(); got != want {
			t.Errorf("thread %s: charged %d ns, existed %d ns", tp.Name(), got, want)
		}
	}
}

// exports renders every byte-reproducible output of one observed run.
func exports(t *testing.T, prof *profile.Profiler, led *core.Ledger) string {
	t.Helper()
	var buf bytes.Buffer
	for _, write := range []func() error{
		func() error { return prof.WriteFolded(&buf) },
		func() error { return prof.WriteTable(&buf) },
		func() error { return prof.WriteHistograms(&buf) },
		func() error { return led.WriteJSON(&buf) },
		func() error { return led.WriteReport(&buf) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestExportsDifferential is the differential suite for the
// observability layer: the profiler and ledger exports, the run's end
// time and each module's traffic must be byte-identical in every engine
// mode, and in a plain rerun of the default mode (both fast paths on),
// which checks the collectors' own determinism. The profiler deliberately
// does NOT force the slow paths (unlike the tracer), so this proves
// attribution survives the fast-forward arithmetic exactly.
func TestExportsDifferential(t *testing.T) {
	modes := append(simtest.Serial(), simtest.Mode{Inline: true, Batched: true})
	simtest.Check(t, modes, func(m simtest.Mode) string {
		prof, led, sys := runWorkload(t, func(e *sim.Engine) { m.Set(e) })
		out := exports(t, prof, led)
		if len(out) == 0 {
			t.Fatal("empty exports")
		}
		fp := fmt.Sprintf("end %d\n", sys.Now())
		mach := sys.Machine()
		for n := 0; n < mach.Nodes(); n++ {
			fp += fmt.Sprintf("module %d: accesses=%d queue-delay=%d\n", n, mach.ModuleAccesses(n), mach.ModuleQueueDelay(n))
		}
		return fp + out
	})
}

// TestModeDependentDiagnostics pins the boundary of the byte-identity
// claim: the engine-level dispatch/fast-forward counters are diagnostics
// that legitimately differ across reference modes, which is exactly why
// the exporters exclude them. They are the engine's own sim.Stats,
// which System.Run adds to the profiler.
func TestModeDependentDiagnostics(t *testing.T) {
	fast, _, sys := runWorkload(t, nil)
	slow, _, _ := runWorkload(t, func(e *sim.Engine) { e.SetBatchedSpins(false) })
	if fast.FastForwards() == 0 {
		t.Error("fast-path run committed no spin fast-forwards — workload has no batched spins to conserve")
	}
	st := sys.Engine().Stats()
	if fast.Dispatches() != int64(st.Dispatches) || fast.FastForwards() != int64(st.MemberCommits) ||
		fast.BatchedIters() != int64(st.BatchedIters) {
		t.Errorf("profiler counts (dispatches %d, fast-forwards %d, batched iters %d), engine stats (%d, %d, %d)",
			fast.Dispatches(), fast.FastForwards(), fast.BatchedIters(),
			st.Dispatches, st.MemberCommits, st.BatchedIters)
	}
	if slow.FastForwards() != 0 {
		t.Errorf("no-spin-batch run committed %d fast-forwards, want 0", slow.FastForwards())
	}
	if fast.Dispatches() == 0 {
		t.Error("no dispatches counted")
	}
}

// TestHistogramsPopulated sanity-checks the per-lock digests: every lock
// in the workload has wait and hold samples, and hold means sit near the
// scripted critical-section lengths.
func TestHistogramsPopulated(t *testing.T) {
	prof, _, _ := runWorkload(t, nil)
	for _, name := range []string{"alock", "block", "mcs"} {
		w, h := prof.WaitHistogram(name), prof.HoldHistogram(name)
		if w == nil || w.Count() == 0 {
			t.Errorf("%s: no wait samples", name)
			continue
		}
		if h == nil || h.Count() == 0 {
			t.Errorf("%s: no hold samples", name)
			continue
		}
		if h.Mean() <= 0 {
			t.Errorf("%s: non-positive mean hold %v", name, h.Mean())
		}
	}
	// The adaptive lock's scripted critical section is 20µs; the recorded
	// holds include lock-release overhead, so the mean is at least that.
	if m := prof.HoldHistogram("alock").Mean(); m < 20*sim.Microsecond {
		t.Errorf("alock mean hold %v < scripted critical section 20µs", m)
	}
}

// TestLedgerRecordsDecisions checks the decision ledger caught the
// adaptive lock's feedback loop: samples for the policy's sensor, at
// least one applied decision with its trigger attached, and a
// configuration transition on every apply entry.
func TestLedgerRecordsDecisions(t *testing.T) {
	_, led, _ := runWorkload(t, nil)
	samples, applies := 0, 0
	for _, e := range led.Entries() {
		switch e.Kind {
		case core.EntrySample:
			samples++
		case core.EntryApply:
			applies++
			if e.Sensor == "" || e.Seq == 0 {
				t.Errorf("apply entry at %d ns has no trigger sample attached", e.At)
			}
			if e.Prev == "" || e.Next == "" {
				t.Errorf("apply entry at %d ns lacks prev/next configuration", e.At)
			}
		}
	}
	if samples == 0 {
		t.Error("ledger recorded no sensor samples")
	}
	if applies == 0 {
		t.Error("ledger recorded no applied decisions")
	}
}

// TestNilInstrumentsAllocationFree pins the nil-receiver contract at the
// API level: every profiler and thread-record method must be callable on
// nil without allocating (the emit sites rely on this).
func TestNilInstrumentsAllocationFree(t *testing.T) {
	var p *profile.Profiler
	var tp *profile.ThreadProf
	allocs := testing.AllocsPerRun(200, func() {
		if p.Register("x", 0) != nil {
			t.Fatal("nil profiler registered a thread")
		}
		p.RecordWait("l", 10)
		p.RecordHold("l", 10)
		p.AddEngineStats(sim.Stats{Dispatches: 1})
		_ = p.Threads()
		_ = p.Dispatches()
		tp.SetBase(5, profile.BaseRunning)
		tp.Push(6, "Lock:l")
		tp.Pop(7, "Lock:l")
		tp.Flush(8)
		_ = tp.Total()
		_ = tp.Name()
	})
	if allocs != 0 {
		t.Errorf("nil instrument methods allocate %.0f allocs/op, want 0", allocs)
	}
}
