package cthreads

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

// TestQuantumPreemptionExactTiming pins the fast path × preemption
// interplay to absolute numbers: an Advance that crosses a slice boundary
// is preempted at exactly the same virtual time whether or not its
// intra-slice sleeps ran inline, and the preemption count is unchanged.
func TestQuantumPreemptionExactTiming(t *testing.T) {
	const (
		quantum = 100 * sim.Microsecond
		cs      = 35 * sim.Microsecond // DefaultConfig().ContextSwitch
	)
	for _, inline := range []bool{true, false} {
		sys := New(sim.Config{Nodes: 1, Quantum: quantum})
		sys.Engine().SetInlineWakeups(inline)
		var bFirstRan sim.Time
		sys.Fork(0, "a", func(th *Thread) {
			// 2.5 quanta: preempted at the first slice boundary; by the
			// second, b has finished and the ready queue is empty.
			th.Advance(250 * sim.Microsecond)
		})
		sys.Fork(0, "b", func(th *Thread) {
			bFirstRan = th.Now()
			th.Advance(10 * sim.Microsecond)
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		// a is dispatched at t=cs, runs one full quantum, is preempted, and
		// b is dispatched one context switch later.
		if want := cs + quantum + cs; bFirstRan != want {
			t.Fatalf("inline=%v: b first ran at %v, want %v", inline, bFirstRan, want)
		}
		if got := sys.Stats().Preemptions; got != 1 {
			t.Fatalf("inline=%v: Preemptions = %d, want 1", inline, got)
		}
	}
}

// threadFingerprint ends a thread-system workload's fingerprint, after
// its log: the scheduler statistics, the final clock, each thread's busy
// and blocked time, and each module's accesses and queue delay. It fails
// t if the workload never preempted, since the quantum interplay would
// then go untested.
func threadFingerprint(t *testing.T, fp *strings.Builder, sys *System) string {
	t.Helper()
	st := sys.Stats()
	if st.Preemptions == 0 {
		t.Fatal("workload never preempted; quantum interplay untested")
	}
	fmt.Fprintf(fp, "stats %+v\nfinal now=%d\n", st, sys.Now())
	for _, th := range sys.Threads() {
		fmt.Fprintf(fp, "thread %s: busy=%d blocked=%d\n", th.Name(), th.Busy(), th.BlockedTime())
	}
	m := sys.Machine()
	for n := 0; n < m.Nodes(); n++ {
		fmt.Fprintf(fp, "module %d: accesses=%d queue-delay=%d\n", n, m.ModuleAccesses(n), m.ModuleQueueDelay(n))
	}
	return fp.String()
}

// runThreadWorkload executes a deterministic multiprogrammed workload —
// threads outnumber processors, a quantum forces preemption mid-Advance,
// cells live on every node with module contention enabled, and threads
// block, time out, wake each other, yield, and join — in one engine mode.
func runThreadWorkload(t *testing.T, seed uint64, mode simtest.Mode) string {
	t.Helper()
	cfg := sim.Config{
		Nodes:         3,
		Quantum:       80 * sim.Microsecond,
		ModuleService: 300 * sim.Nanosecond,
		Seed:          seed,
	}
	sys := New(cfg)
	mode.Set(sys.Engine())
	m := sys.Machine()
	cells := make([]*sim.Cell, cfg.Nodes)
	for i := range cells {
		cells[i] = m.NewCell(i, fmt.Sprintf("c%d", i), 0)
	}
	var fp strings.Builder
	record := func(who string) {
		fmt.Fprintf(&fp, "%s@%d\n", who, sys.Now())
	}

	var sleeper *Thread
	sleeper = sys.Fork(0, "sleeper", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Block()
			record("sleeper-woke")
			th.Compute(40)
		}
	})
	var workers []*Thread
	for i := 0; i < 6; i++ {
		i := i
		w := sys.Fork(i%cfg.Nodes, fmt.Sprintf("w%d", i), func(th *Thread) {
			r := th.Rand()
			for step := 0; step < 8; step++ {
				th.Compute(1 + r.Intn(400)) // often crosses a slice boundary
				c := cells[r.Intn(len(cells))]
				old := c.AtomicOr(th, 1<<uint(i))
				if old&1 != 0 {
					record(th.Name() + "-sawbit")
				}
				switch r.Intn(5) {
				case 0:
					th.Yield()
				case 1:
					if th.BlockTimeout(sim.Time(r.Intn(50)) * sim.Microsecond) {
						record(th.Name() + "-timeout")
					}
				case 2:
					if i == 1 && sleeper.State() == StateBlocked {
						th.Wake(sleeper)
					}
				}
			}
			record(th.Name() + "-done")
		})
		workers = append(workers, w)
	}
	// A reaper joins every worker, then drains the sleeper's remaining
	// Block iterations so the run terminates cleanly.
	sys.Fork(2, "reaper", func(th *Thread) {
		for _, w := range workers {
			th.Join(w)
		}
		for sleeper.State() != StateDone {
			if sleeper.State() == StateBlocked {
				th.Wake(sleeper)
			} else {
				th.Yield()
			}
		}
		record("reaper-done")
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("seed %d %v: %v", seed, mode, err)
	}
	return threadFingerprint(t, &fp, sys)
}

// TestInlineWakeupThreadDifferential runs the full thread-package workload
// — preemption, blocking, timeouts, wakeups, module contention — in every
// engine mode, and requires identical logs, scheduler statistics,
// per-thread accounting, and module contention.
func TestInlineWakeupThreadDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string { return runThreadWorkload(t, seed, m) })
	}
}
