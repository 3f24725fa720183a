package active

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testSys builds a small fast machine for monitor tests.
func testSys(procs int) *cthreads.System {
	return cthreads.New(sim.Config{
		Nodes:         procs,
		LocalAccess:   10,
		RemoteAccess:  40,
		AtomicExtra:   5,
		Instr:         1,
		ContextSwitch: 100,
		Wakeup:        200,
		Seed:          1,
	})
}

// exercise runs nThreads × nIters Invokes against m, each body
// incrementing a shared counter with a mutual-exclusion check, and
// returns the final counter.
func exercise(t *testing.T, sys *cthreads.System, m *Monitor, nThreads, nIters int) int {
	t.Helper()
	inside := false
	counter := 0
	for i := 0; i < nThreads; i++ {
		proc := i % sys.Procs()
		sys.Fork(proc, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for j := 0; j < nIters; j++ {
				m.Invoke(th, func(b *cthreads.Thread) {
					if inside {
						t.Errorf("monitor method overlap in %s", m.Name())
					}
					inside = true
					b.Advance(sim.Time(50 + b.Rand().Intn(200)))
					inside = false
					counter++
				})
				th.Advance(sim.Time(th.Rand().Intn(500)))
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return counter
}

func TestSyncMode(t *testing.T) {
	sys := testSys(4)
	m := New(sys, Config{Node: 0, Name: "sync-mon", ExecMode: ExecSync})
	got := exercise(t, sys, m, 4, 10)
	if got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
	st := m.Stats()
	if st.SyncCalls != 40 || st.Submits != 0 {
		t.Fatalf("stats = %+v, want 40 sync calls and no submits", st)
	}
	if m.Latency().Count() != 40 {
		t.Fatalf("latency count = %d, want 40", m.Latency().Count())
	}
	if m.inflight != 0 {
		t.Fatalf("inflight = %d after run, want 0", m.inflight)
	}
}

func TestFlatCombining(t *testing.T) {
	sys := testSys(4)
	m := New(sys, Config{Node: 0, Name: "flat-mon", ExecMode: ExecAsync})
	got := exercise(t, sys, m, 8, 10)
	if got != 80 {
		t.Fatalf("counter = %d, want 80", got)
	}
	st := m.Stats()
	if st.Submits != 80 || st.Executed != 80 {
		t.Fatalf("stats = %+v, want 80 submits and 80 executed", st)
	}
	if st.SelfCombines == 0 || st.Batches == 0 {
		t.Fatalf("stats = %+v, want flat-combining activity", st)
	}
	if st.ServerBatches != 0 {
		t.Fatalf("stats = %+v, server batches on a flat monitor", st)
	}
	if m.Latency().Count() != 80 {
		t.Fatalf("latency count = %d, want 80", m.Latency().Count())
	}
	if len(m.pending) != 0 || m.inflight != 0 {
		t.Fatalf("pending=%d inflight=%d after run, want empty", len(m.pending), m.inflight)
	}
}

func TestServerCombining(t *testing.T) {
	sys := testSys(4)
	m := New(sys, Config{Node: 0, Name: "srv-mon", ExecMode: ExecAsync, Combiner: CombinerServer})
	inside := false
	counter := 0
	workers := make([]*cthreads.Thread, 8)
	for i := 0; i < 8; i++ {
		workers[i] = sys.Fork(i%sys.Procs(), fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for j := 0; j < 10; j++ {
				m.Invoke(th, func(b *cthreads.Thread) {
					if inside {
						t.Error("monitor method overlap under server combiner")
					}
					inside = true
					b.Advance(sim.Time(50 + b.Rand().Intn(200)))
					inside = false
					counter++
				})
				th.Advance(sim.Time(th.Rand().Intn(500)))
			}
		})
	}
	// The server thread never exits on its own: a closer joins the
	// workers and shuts it down.
	sys.Fork(0, "closer", func(th *cthreads.Thread) {
		for _, w := range workers {
			th.Join(w)
		}
		m.Shutdown(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if counter != 80 {
		t.Fatalf("counter = %d, want 80", counter)
	}
	st := m.Stats()
	if st.Submits != 80 || st.Executed != 80 {
		t.Fatalf("stats = %+v, want 80 submits and 80 executed", st)
	}
	if st.ServerBatches == 0 || st.ServerWakeups == 0 {
		t.Fatalf("stats = %+v, want server activity", st)
	}
	if st.SelfCombines != 0 {
		t.Fatalf("stats = %+v, flat elections on a server monitor", st)
	}
}

func TestSubmitPollDone(t *testing.T) {
	sys := testSys(2)
	m := New(sys, Config{Node: 0, Name: "poll-mon", ExecMode: ExecAsync})
	sys.Fork(0, "w", func(th *cthreads.Thread) {
		ran := false
		f := m.Submit(th, func(*cthreads.Thread) { ran = true })
		// Flat combining with a free election: the submitter combined
		// its own request before Submit returned.
		if !ran || !f.Done() {
			t.Error("uncontended flat submit did not self-combine")
		}
		if !f.Poll(th) {
			t.Error("Poll reported an executed future as pending")
		}
		f.Wait(th) // completed future: must return without blocking
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchLimit(t *testing.T) {
	sys := testSys(2)
	m := New(sys, Config{Node: 0, Name: "batch-mon", ExecMode: ExecAsync, BatchLimit: 2})
	got := exercise(t, sys, m, 8, 5)
	if got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
	st := m.Stats()
	if st.MaxBatch > 2 {
		t.Fatalf("max batch = %d, want <= 2", st.MaxBatch)
	}
	if st.Batches < 20 {
		t.Fatalf("batches = %d, want >= 20 with batch-limit 2 and 40 methods", st.Batches)
	}
}

// TestAdaptationSwitches drives a phase-changing workload (calm → storm →
// calm) against an ExecModeAdapt policy and checks the ledger records a
// sensor-driven sync→async switch and the return to sync.
func TestAdaptationSwitches(t *testing.T) {
	sys := testSys(8)
	ledger := core.NewLedger(0)
	sys.SetLedger(ledger)
	m := New(sys, Config{Node: 0, Name: "adapt-mon", ExecMode: ExecSync, SensorEvery: 1})
	m.Object().SetPolicy(core.ExecModeAdapt{
		Attr: AttrExecMode, Sync: ExecSync, Async: ExecAsync,
		AsyncAt: 4, SyncAt: 1,
	})
	body := func(b *cthreads.Thread) { b.Advance(100) }
	// Phase 1+3 (calm): a single caller, no concurrency. Phase 2
	// (storm): 8 concurrent callers hammering the monitor.
	solo := sys.Fork(0, "solo", func(th *cthreads.Thread) {
		for j := 0; j < 30; j++ {
			m.Invoke(th, body)
			th.Advance(2000)
		}
	})
	storm := make([]*cthreads.Thread, 8)
	for i := range storm {
		storm[i] = sys.Fork(i, fmt.Sprintf("storm%d", i), func(th *cthreads.Thread) {
			th.Join(solo)
			for j := 0; j < 40; j++ {
				m.Invoke(th, body)
			}
		})
	}
	sys.Fork(0, "calm-again", func(th *cthreads.Thread) {
		for _, s := range storm {
			th.Join(s)
		}
		for j := 0; j < 30; j++ {
			m.Invoke(th, body)
			th.Advance(2000)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	asyncDecision := core.Decision{Attr: AttrExecMode, Value: ExecAsync}.String()
	syncDecision := core.Decision{Attr: AttrExecMode, Value: ExecSync}.String()
	var toAsync, toSync bool
	var order []string
	for _, e := range ledger.Entries() {
		if e.Kind == core.EntryApply && e.Err == "" {
			order = append(order, e.Decision)
			if e.Decision == asyncDecision {
				toAsync = true
			}
			if e.Decision == syncDecision && toAsync {
				toSync = true
			}
		}
	}
	if !toAsync || !toSync {
		t.Fatalf("ledger exec-mode applies = %v, want a sync→async and a later async→sync switch", order)
	}
	st := m.Stats()
	if st.SyncCalls == 0 || st.Submits == 0 {
		t.Fatalf("stats = %+v, want both modes exercised", st)
	}
}

// TestDeterminism runs the same contended workload twice and requires
// bit-identical virtual time, stats, and latency digests.
func TestDeterminism(t *testing.T) {
	run := func() string {
		sys := testSys(4)
		m := New(sys, Config{Node: 0, Name: "det-mon", ExecMode: ExecAsync})
		exercise(t, sys, m, 8, 10)
		return fmt.Sprintf("%d %+v %s", sys.Now(), m.Stats(), m.Latency().Summary())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic run:\n  %s\n  %s", a, b)
	}
}

// TestProfilerFrames checks the new frames appear in the folded output
// and the conservation invariant holds with them on the stack.
func TestProfilerFrames(t *testing.T) {
	sys := testSys(4)
	prof := profile.New()
	sys.SetProfiler(prof)
	m := New(sys, Config{Node: 0, Name: "prof-mon", ExecMode: ExecAsync})
	exercise(t, sys, m, 8, 10)
	var sb strings.Builder
	if err := prof.WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	folded := sb.String()
	for _, frame := range []string{"submit:prof-mon", "combine:prof-mon"} {
		if !strings.Contains(folded, frame) {
			t.Errorf("folded output missing frame %q:\n%s", frame, folded)
		}
	}
	end := sys.Now()
	for _, tp := range prof.Threads() {
		if got, want := tp.Total(), end-tp.Registered(); got != want {
			t.Errorf("conservation violated for %s: total %d, lifetime %d", tp.Name(), got, want)
		}
	}
}

// TestTraceEvents checks mon-submit/mon-combine events are recorded and
// render in the text exporter.
func TestTraceEvents(t *testing.T) {
	sys := testSys(4)
	tr := trace.New(4096)
	sys.SetTracer(tr)
	m := New(sys, Config{Node: 0, Name: "tr-mon", ExecMode: ExecAsync})
	exercise(t, sys, m, 4, 5)
	var submits, combines int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindSubmit:
			submits++
		case trace.KindCombine:
			combines++
		}
	}
	if submits != 20 || combines == 0 {
		t.Fatalf("trace: %d submits (want 20), %d combines (want > 0)", submits, combines)
	}
	var sb strings.Builder
	if err := tr.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mon-submit") || !strings.Contains(sb.String(), "mon-combine") {
		t.Fatalf("text exporter missing monitor events:\n%s", sb.String())
	}
}

// TestExternalLock hands the monitor an existing lock (the TSP wiring).
func TestExternalLock(t *testing.T) {
	sys := testSys(4)
	l := locks.MustNew(sys, locks.KindBlocking, 0, "shared")
	m := New(sys, Config{Node: 0, Name: "ext-mon", Lock: l, ExecMode: ExecAsync})
	if m.Lock() != l {
		t.Fatal("monitor did not adopt the provided lock")
	}
	if got := exercise(t, sys, m, 4, 5); got != 20 {
		t.Fatalf("counter = %d, want 20", got)
	}
}

func TestShutdownWithoutServer(t *testing.T) {
	sys := testSys(2)
	m := New(sys, Config{Node: 0, Name: "noop-mon", ExecMode: ExecSync})
	sys.Fork(0, "w", func(th *cthreads.Thread) {
		m.Invoke(th, func(*cthreads.Thread) {})
		m.Shutdown(th) // no server ever forked: must be a no-op
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}
