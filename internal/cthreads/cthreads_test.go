package cthreads

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// testConfig keeps latencies small and round for readable assertions.
func testConfig(procs int) sim.Config {
	return sim.Config{
		Nodes:         procs,
		LocalAccess:   10,
		RemoteAccess:  40,
		AtomicExtra:   5,
		Instr:         1,
		ContextSwitch: 100,
		Wakeup:        200,
		Seed:          1,
	}
}

func TestForkRunsThread(t *testing.T) {
	s := New(testConfig(1))
	ran := false
	s.Fork(0, "worker", func(th *Thread) {
		ran = true
		th.Advance(50)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("thread body never ran")
	}
	// One context switch (100) + 50 advance.
	if got := s.Now(); got != 150 {
		t.Fatalf("final time = %v, want 150", got)
	}
}

func TestAdvanceOccupiesProcessor(t *testing.T) {
	s := New(testConfig(1))
	var order []string
	s.Fork(0, "a", func(th *Thread) {
		th.Advance(1000)
		order = append(order, "a-done")
	})
	s.Fork(0, "b", func(th *Thread) {
		order = append(order, "b-start")
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "a-done" || order[1] != "b-start" {
		t.Fatalf("order = %v: thread b ran while a occupied the processor", order)
	}
}

func TestThreadsOnDifferentProcessorsOverlap(t *testing.T) {
	s := New(testConfig(2))
	var aEnd, bEnd sim.Time
	s.Fork(0, "a", func(th *Thread) { th.Advance(1000); aEnd = th.Now() })
	s.Fork(1, "b", func(th *Thread) { th.Advance(1000); bEnd = th.Now() })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if aEnd != bEnd {
		t.Fatalf("parallel threads finished at %v and %v, want same time", aEnd, bEnd)
	}
	if s.Now() != 1100 {
		t.Fatalf("makespan = %v, want 1100 (switch + work, in parallel)", s.Now())
	}
}

func TestYieldAlternates(t *testing.T) {
	s := New(testConfig(1))
	var order []string
	mk := func(name string) func(*Thread) {
		return func(th *Thread) {
			for i := 0; i < 3; i++ {
				order = append(order, name)
				th.Yield()
			}
		}
	}
	s.Fork(0, "a", mk("a"))
	s.Fork(0, "b", mk("b"))
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "ababab"
	if got := strings.Join(order, ""); got != want {
		t.Fatalf("yield order = %q, want %q", got, want)
	}
}

func TestBlockWake(t *testing.T) {
	s := New(testConfig(2))
	var wokeAt sim.Time
	sleeper := s.Fork(0, "sleeper", func(th *Thread) {
		th.Block()
		wokeAt = th.Now()
	})
	s.Fork(1, "waker", func(th *Thread) {
		th.Advance(1000)
		if !th.Wake(sleeper) {
			t.Error("Wake returned false for blocked thread")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// waker: switch(100) + 1000 + wakeup charge(200) = 1300; then sleeper
	// needs a context switch (100) to get back on processor 0.
	if wokeAt != 1400 {
		t.Fatalf("sleeper woke at %v, want 1400", wokeAt)
	}
	if sleeper.BlockedTime() <= 0 {
		t.Fatal("BlockedTime not accounted")
	}
}

// TestWakeNonBlockedReturnsFalse also checks that a thread which blocks
// while the waker pays the wakeup latency is not woken by that Wake: the
// block waits for a wakeup of its own.
func TestWakeNonBlockedReturnsFalse(t *testing.T) {
	s := New(testConfig(2))
	var wokeAt sim.Time
	busy := s.Fork(0, "busy", func(th *Thread) {
		th.Advance(100)
		th.Block()
		wokeAt = th.Now()
	})
	s.Fork(1, "waker", func(th *Thread) {
		if th.Wake(busy) {
			t.Error("Wake returned true for running thread")
		}
		th.Advance(1000)
		if !th.Wake(busy) {
			t.Error("Wake returned false for blocked thread")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// waker: switch(100) + wakeup charge(200) + 1000 + wakeup charge(200)
	// = 1500; then busy needs a context switch (100).
	if wokeAt != 1600 {
		t.Fatalf("busy woke at %v, want 1600", wokeAt)
	}
}

func TestBlockTimeoutFires(t *testing.T) {
	s := New(testConfig(1))
	var timedOut bool
	s.Fork(0, "t", func(th *Thread) {
		timedOut = th.BlockTimeout(500)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !timedOut {
		t.Fatal("BlockTimeout did not report timeout")
	}
	if s.Stats().Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", s.Stats().Timeouts)
	}
}

func TestBlockTimeoutWokenEarly(t *testing.T) {
	s := New(testConfig(2))
	var timedOut bool
	sleeper := s.Fork(0, "sleeper", func(th *Thread) {
		timedOut = th.BlockTimeout(1_000_000)
		// Block again: the stale timer from the first block must not
		// wake this one.
		th.BlockTimeout(100)
	})
	s.Fork(1, "waker", func(th *Thread) {
		th.Advance(300)
		th.Wake(sleeper)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if timedOut {
		t.Fatal("woken thread reported timeout")
	}
}

func TestJoin(t *testing.T) {
	s := New(testConfig(2))
	var joinedAt, childEnd sim.Time
	child := s.Fork(1, "child", func(th *Thread) {
		th.Advance(5000)
		childEnd = th.Now()
	})
	s.Fork(0, "parent", func(th *Thread) {
		th.Join(child)
		joinedAt = th.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if joinedAt <= childEnd {
		t.Fatalf("parent joined at %v, child ended %v", joinedAt, childEnd)
	}
}

func TestJoinFinishedThreadReturnsImmediately(t *testing.T) {
	s := New(testConfig(1))
	child := s.Fork(0, "child", func(th *Thread) {})
	s.Fork(0, "parent", func(th *Thread) {
		th.Advance(10000) // child certainly done
		before := th.Now()
		th.Join(child)
		if th.Now() != before {
			t.Error("Join of finished thread consumed time")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestManyJoinersAllWake(t *testing.T) {
	s := New(testConfig(4))
	target := s.Fork(0, "target", func(th *Thread) { th.Advance(1000) })
	woke := 0
	for i := 1; i < 4; i++ {
		s.Fork(i, "joiner", func(th *Thread) {
			th.Join(target)
			woke++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 3 {
		t.Fatalf("%d joiners woke, want 3", woke)
	}
}

func TestDeadlockReportsStuckThreads(t *testing.T) {
	s := New(testConfig(1))
	s.Fork(0, "stuck", func(th *Thread) { th.Block() })
	err := s.Run()
	if err == nil {
		t.Fatal("Run returned nil for deadlocked system")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("error %q does not name the stuck thread", err)
	}
}

func TestCellAccessFromThreadChargesLatency(t *testing.T) {
	s := New(testConfig(2))
	cell := s.Machine().NewCell(0, "x", 0)
	var localT, remoteT sim.Time
	s.Fork(0, "local", func(th *Thread) {
		start := th.Now()
		cell.Load(th)
		localT = th.Now() - start
	})
	s.Fork(1, "remote", func(th *Thread) {
		start := th.Now()
		cell.Load(th)
		remoteT = th.Now() - start
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if localT != 10 || remoteT != 40 {
		t.Fatalf("local=%v remote=%v, want 10 and 40", localT, remoteT)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		s := New(testConfig(4))
		cell := s.Machine().NewCell(0, "ctr", 0)
		done := make([]*Thread, 0, 8)
		for i := 0; i < 8; i++ {
			proc := i % 4
			done = append(done, s.Fork(proc, "w", func(th *Thread) {
				for j := 0; j < 20; j++ {
					cell.AtomicAdd(th, 1)
					th.Advance(sim.Time(th.Rand().Intn(100)))
					th.Yield()
				}
			}))
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if cell.Peek() != 160 {
			t.Fatalf("counter = %d, want 160", cell.Peek())
		}
		_ = done
		return s.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverge: %v vs %v", a, b)
	}
}

func TestThreadPanicSurfaces(t *testing.T) {
	s := New(testConfig(1))
	s.Fork(0, "boom", func(th *Thread) { panic("oops") })
	if err := s.Run(); err == nil {
		t.Fatal("Run returned nil despite thread panic")
	}
}

func TestAdvanceFromWrongContextPanics(t *testing.T) {
	s := New(testConfig(2))
	var victim *Thread
	victim = s.Fork(0, "victim", func(th *Thread) { th.Block() })
	s.Fork(1, "offender", func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("Advance on another thread did not panic")
			}
			th.Wake(victim)
		}()
		victim.Advance(10)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestStatsCounts(t *testing.T) {
	s := New(testConfig(2))
	sleeper := s.Fork(0, "sleeper", func(th *Thread) { th.Block() })
	s.Fork(1, "waker", func(th *Thread) { th.Wake(sleeper) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	if st.Forks != 2 {
		t.Errorf("Forks = %d, want 2", st.Forks)
	}
	if st.Wakeups != 1 {
		t.Errorf("Wakeups = %d, want 1", st.Wakeups)
	}
	if st.ContextSwitches < 2 {
		t.Errorf("ContextSwitches = %d, want ≥ 2", st.ContextSwitches)
	}
}

func TestQuantumPreemptionRoundRobin(t *testing.T) {
	cfg := testConfig(1)
	cfg.Quantum = 1000
	s := New(cfg)
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		s.Fork(0, name, func(th *Thread) {
			for i := 0; i < 3; i++ {
				th.Advance(1000) // exactly one quantum
				order = append(order, name)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With round-robin at quantum expiry the threads interleave; without
	// preemption thread a would log all three entries first.
	if order[0] == order[1] && order[1] == order[2] {
		t.Fatalf("order = %v: no preemption happened", order)
	}
	if s.Stats().Preemptions == 0 {
		t.Fatal("Preemptions counter is zero")
	}
}

func TestQuantumZeroMeansNoPreemption(t *testing.T) {
	s := New(testConfig(1))
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		s.Fork(0, name, func(th *Thread) {
			for i := 0; i < 3; i++ {
				th.Advance(1000)
				order = append(order, name)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "a", "a", "b", "b", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want run-to-completion %v", order, want)
		}
	}
}

func TestQuantumSoloThreadNeverPreempted(t *testing.T) {
	cfg := testConfig(1)
	cfg.Quantum = 100
	s := New(cfg)
	s.Fork(0, "solo", func(th *Thread) { th.Advance(10_000) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Stats().Preemptions != 0 {
		t.Fatalf("solo thread preempted %d times", s.Stats().Preemptions)
	}
}

func TestUtilization(t *testing.T) {
	s := New(testConfig(2))
	s.Fork(0, "busy", func(th *Thread) { th.Advance(10_000) })
	// Processor 1 idles the whole run.
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	u := s.Utilization()
	if u <= 0.3 || u >= 0.6 {
		t.Fatalf("Utilization = %.2f, want ≈ 0.5 (one of two processors busy)", u)
	}
}

// Property: random programs of advances, yields, timed blocks, and forks
// always run to completion (no lost wakeups or scheduler stalls), and two
// identical runs produce identical final clocks.
func TestRandomProgramsCompleteProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(seed uint64) sim.Time {
		cfg := testConfig(4)
		cfg.Seed = seed
		cfg.Quantum = 5000
		s := New(cfg)
		for i := 0; i < 6; i++ {
			s.Fork(i%4, "w", func(th *Thread) {
				for j := 0; j < 15; j++ {
					switch th.Rand().Intn(4) {
					case 0:
						th.Advance(sim.Time(th.Rand().Intn(3000)))
					case 1:
						th.Yield()
					case 2:
						th.BlockTimeout(sim.Time(th.Rand().Intn(2000) + 1))
					case 3:
						th.Compute(th.Rand().Intn(500))
					}
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return s.Now()
	}
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw) + 1
		return run(seed) == run(seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
