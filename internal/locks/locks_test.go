package locks

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// testSys builds a small fast machine for lock tests.
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

// makeLock builds each lock kind uniformly for table-driven tests.
func makeLock(t *testing.T, sys *cthreads.System, kind Kind) Lock {
	t.Helper()
	l, err := New(sys, kind, 0, string(kind), DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// exerciseMutex runs nThreads × nIters critical sections incrementing an
// unprotected Go counter; any mutual-exclusion violation shows up as a
// mid-section overlap (checked with an "inside" flag), and usually as a
// lost update.
func exerciseMutex(t *testing.T, sys *cthreads.System, l Lock, nThreads, nIters int, multiPerProc bool) {
	t.Helper()
	inside := false
	counter := 0
	var maxProcs = sys.Procs()
	for i := 0; i < nThreads; i++ {
		proc := i % maxProcs
		if !multiPerProc && i >= maxProcs {
			t.Fatalf("test bug: %d threads on %d procs without multiPerProc", nThreads, maxProcs)
		}
		sys.Fork(proc, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for j := 0; j < nIters; j++ {
				l.Lock(th)
				if inside {
					t.Errorf("mutual exclusion violated in %s", l.Name())
				}
				inside = true
				th.Advance(sim.Time(50 + th.Rand().Intn(200)))
				inside = false
				counter++
				l.Unlock(th)
				th.Advance(sim.Time(th.Rand().Intn(300)))
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != nThreads*nIters {
		t.Fatalf("%s: counter = %d, want %d", l.Name(), counter, nThreads*nIters)
	}
}

func TestMutualExclusionAllKindsOneThreadPerProc(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			sys := testSys(4)
			l := makeLock(t, sys, kind)
			exerciseMutex(t, sys, l, 4, 25, false)
			if l.Stats().Acquisitions != 100 {
				t.Fatalf("acquisitions = %d, want 100", l.Stats().Acquisitions)
			}
		})
	}
}

// Spinning locks cannot be used with more threads than processors if a
// spinner can starve the lock holder on its own processor — but here each
// holder finishes its critical section without yielding, so even spin
// locks are safe with multiprogramming. Blocking-capable kinds must also
// make progress.
func TestMutualExclusionMultiprogrammed(t *testing.T) {
	for _, kind := range []Kind{KindBlocking, KindAdaptive} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			sys := testSys(2)
			l := makeLock(t, sys, kind)
			exerciseMutex(t, sys, l, 6, 10, true)
		})
	}
}

func TestCombinedLockSpinThenBlock(t *testing.T) {
	sys := testSys(2)
	l := NewReconfigurableLock(sys, 0, "combined", DefaultCosts(), 3)
	exerciseMutex(t, sys, l, 2, 20, false)
	st := l.Stats()
	if st.SpinIters == 0 {
		t.Error("combined lock never spun")
	}
	if st.Blocks == 0 {
		t.Error("combined lock never blocked (critical sections exceed 3 spins)")
	}
}

func TestPureSpinNeverBlocks(t *testing.T) {
	sys := testSys(4)
	l := NewPureSpinConfigured(sys, 0, "purespin", DefaultCosts())
	exerciseMutex(t, sys, l, 4, 15, false)
	if st := l.Stats(); st.Blocks != 0 {
		t.Fatalf("pure-spin lock blocked %d times", st.Blocks)
	}
}

func TestPureBlockingNeverSpins(t *testing.T) {
	sys := testSys(4)
	l := NewPureBlockingConfigured(sys, 0, "pureblock", DefaultCosts())
	exerciseMutex(t, sys, l, 4, 15, false)
	st := l.Stats()
	if st.SpinIters != 0 {
		t.Fatalf("pure-blocking lock spun %d iterations", st.SpinIters)
	}
	if st.Blocks == 0 {
		t.Fatal("pure-blocking lock never blocked under contention")
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	sys := testSys(2)
	l := makeLock(t, sys, KindSpin)
	holder := make(chan struct{}) // not used for sync; just documents intent
	_ = holder
	s1 := sys.Fork(0, "owner", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(10_000)
		l.Unlock(th)
	})
	_ = s1
	sys.Fork(1, "intruder", func(th *cthreads.Thread) {
		th.Advance(1000) // owner holds the lock now
		defer func() {
			if recover() == nil {
				t.Error("Unlock by non-owner did not panic")
			}
		}()
		l.Unlock(th)
	})
	// The intruder's panic is recovered inside the thread, so Run succeeds.
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBlockingLockWaitersSleepNotSpin(t *testing.T) {
	sys := testSys(2)
	l := NewBlockingLock(sys, 0, "blk", DefaultCosts())
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(100_000)
		l.Unlock(th)
	})
	var waiterBusy sim.Time
	var waiter *cthreads.Thread
	waiter = sys.Fork(1, "waiter", func(th *cthreads.Thread) {
		th.Advance(1000)
		l.Lock(th)
		waiterBusy = th.Busy()
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if l.Stats().Blocks != 1 {
		t.Fatalf("Blocks = %d, want 1", l.Stats().Blocks)
	}
	// The waiter slept instead of burning cycles: its busy time is far
	// below the 100ms critical section it waited out.
	if waiterBusy > 20_000 {
		t.Fatalf("waiter busy %v while waiting; it should have slept", waiterBusy)
	}
	if waiter.BlockedTime() == 0 {
		t.Fatal("waiter has no blocked time")
	}
}

func TestSpinLockWaitersBurnCycles(t *testing.T) {
	sys := testSys(2)
	l := NewSpinLock(sys, 0, "spn", DefaultCosts())
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(100_000)
		l.Unlock(th)
	})
	var waiterBusy sim.Time
	sys.Fork(1, "waiter", func(th *cthreads.Thread) {
		th.Advance(1000)
		l.Lock(th)
		waiterBusy = th.Busy()
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if waiterBusy < 90_000 {
		t.Fatalf("spin waiter busy only %v; a spinner burns the whole wait", waiterBusy)
	}
}

func TestFCFSGrantOrder(t *testing.T) {
	sys := testSys(4)
	l := NewPureBlockingConfigured(sys, 0, "fcfs", DefaultCosts())
	var order []string
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(500_000) // everybody queues meanwhile
		l.Unlock(th)
	})
	for i := 1; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		delay := sim.Time(i * 10_000) // staggered arrivals: w1, w2, w3
		sys.Fork(i, name, func(th *cthreads.Thread) {
			th.Advance(delay)
			l.Lock(th)
			order = append(order, th.Name())
			l.Unlock(th)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestPrioritySchedulerGrantsHighestFirst(t *testing.T) {
	sys := testSys(4)
	l := NewPureBlockingConfigured(sys, 0, "prio", DefaultCosts())
	if _, err := l.Object().Methods.Install(MethodScheduler, SchedPriority); err != nil {
		t.Fatal(err)
	}
	var order []string
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(500_000)
		l.Unlock(th)
	})
	prios := map[string]int{"w1": 1, "w2": 9, "w3": 5}
	for i := 1; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		delay := sim.Time(i * 10_000)
		sys.Fork(i, name, func(th *cthreads.Thread) {
			th.SetPriority(prios[th.Name()])
			th.Advance(delay)
			l.Lock(th)
			order = append(order, th.Name())
			l.Unlock(th)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"w2", "w3", "w1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v (highest priority first)", order, want)
		}
	}
}

func TestHandoffSchedulerGrantsSuccessor(t *testing.T) {
	sys := testSys(4)
	l := NewPureBlockingConfigured(sys, 0, "handoff", DefaultCosts())
	if _, err := l.Object().Methods.Install(MethodScheduler, SchedHandoff); err != nil {
		t.Fatal(err)
	}
	var order []string
	var workers [4]*cthreads.Thread
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(500_000)
		l.SetSuccessor(workers[3]) // hand to the last arrival
		l.Unlock(th)
	})
	for i := 1; i < 4; i++ {
		i := i
		name := fmt.Sprintf("w%d", i)
		workers[i] = sys.Fork(i, name, func(th *cthreads.Thread) {
			th.Advance(sim.Time(i * 10_000))
			l.Lock(th)
			order = append(order, th.Name())
			l.Unlock(th)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if order[0] != "w3" {
		t.Fatalf("grant order = %v, want w3 first (handoff)", order)
	}
}

func TestTimeoutConditionalSleepRetries(t *testing.T) {
	sys := testSys(2)
	l := NewReconfigurableLock(sys, 0, "timeout", DefaultCosts(), 0)
	l.SetupPolicy(0, 0, 1, 50_000) // pure blocking with a 50µs timeout
	acquired := false
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(400_000)
		l.Unlock(th)
	})
	sys.Fork(1, "waiter", func(th *cthreads.Thread) {
		th.Advance(1000)
		l.Lock(th)
		acquired = true
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !acquired {
		t.Fatal("waiter never acquired")
	}
	if sys.Stats().Timeouts == 0 {
		t.Fatal("conditional sleep never timed out during a 400µs hold")
	}
}

func TestAdaptiveConfiguresNoContentionLockToSpin(t *testing.T) {
	sys := testSys(1)
	l := NewAdaptiveLock(sys, 0, "adapt", DefaultCosts(), nil)
	sys.Fork(0, "solo", func(th *cthreads.Thread) {
		for i := 0; i < 40; i++ {
			l.Lock(th)
			th.Advance(100)
			l.Unlock(th)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// No contention → the policy drives spin-time to MaxSpin (pure spin).
	spin := l.Object().Attrs.MustGet(AttrSpinTime)
	def := core.DefaultSimpleAdapt(AttrSpinTime)
	if spin != def.MaxSpin {
		t.Fatalf("spin-time = %d after uncontended run, want MaxSpin %d", spin, def.MaxSpin)
	}
	if l.Stats().Blocks != 0 {
		t.Fatalf("uncontended adaptive lock blocked %d times", l.Stats().Blocks)
	}
}

func TestAdaptiveConfiguresOverloadedLockToBlocking(t *testing.T) {
	sys := testSys(8)
	l := NewAdaptiveLock(sys, 0, "adapt", DefaultCosts(),
		core.SimpleAdapt{SpinAttr: AttrSpinTime, WaitingThreshold: 1, Step: 4, MaxSpin: 1000})
	var minSpinSeen int64 = 1 << 60
	for i := 0; i < 8; i++ {
		sys.Fork(i, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for j := 0; j < 15; j++ {
				l.Lock(th)
				th.Advance(20_000) // long critical sections pile up waiters
				if v := l.Object().Attrs.MustGet(AttrSpinTime); v < minSpinSeen {
					minSpinSeen = v
				}
				l.Unlock(th)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if minSpinSeen > 0 {
		t.Fatalf("overloaded adaptive lock never reached pure blocking (min spin-time %d)", minSpinSeen)
	}
	if l.Stats().Blocks == 0 {
		t.Fatal("overloaded adaptive lock never blocked")
	}
}

func TestAdaptiveMonitorSamplesEveryOtherUnlock(t *testing.T) {
	sys := testSys(1)
	l := NewAdaptiveLock(sys, 0, "adapt", DefaultCosts(), nil)
	sys.Fork(0, "solo", func(th *cthreads.Thread) {
		for i := 0; i < 10; i++ {
			l.Lock(th)
			l.Unlock(th)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sensor := l.Object().Monitor.Sensor(SensorWaiting)
	if sensor.Probes() != 10 || sensor.Samples() != 5 {
		t.Fatalf("probes/samples = %d/%d, want 10/5", sensor.Probes(), sensor.Samples())
	}
}

func TestConfigureByChargesAndApplies(t *testing.T) {
	sys := testSys(1)
	l := NewReconfigurableLock(sys, 0, "cfg", DefaultCosts(), 5)
	var attrCost, schedCost sim.Time
	sys.Fork(0, "cfg", func(th *cthreads.Thread) {
		start := th.Now()
		if err := l.ConfigureBy(th, core.Decision{Attr: AttrSpinTime, Value: 50}, core.OwnerSelf); err != nil {
			t.Errorf("ConfigureBy attr: %v", err)
		}
		attrCost = th.Now() - start
		start = th.Now()
		if err := l.ConfigureBy(th, core.Decision{Method: MethodScheduler, Variant: SchedPriority}, core.OwnerSelf); err != nil {
			t.Errorf("ConfigureBy method: %v", err)
		}
		schedCost = th.Now() - start
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if l.Object().Attrs.MustGet(AttrSpinTime) != 50 {
		t.Fatal("attribute not applied")
	}
	if v, _ := l.Object().Methods.Installed(MethodScheduler); v != SchedPriority {
		t.Fatal("scheduler not installed")
	}
	if attrCost <= 0 || schedCost <= attrCost {
		t.Fatalf("costs: attr=%v sched=%v; scheduler reconfig must cost more", attrCost, schedCost)
	}
}

func TestExternalAgentOwnershipOverLock(t *testing.T) {
	sys := testSys(2)
	l := NewAdaptiveLock(sys, 0, "adapt", DefaultCosts(), nil)
	agent := core.OwnerID(77)
	sys.Fork(0, "agent", func(th *cthreads.Thread) {
		if err := l.AcquireAttrBy(th, AttrSpinTime, agent); err != nil {
			t.Errorf("AcquireAttrBy: %v", err)
		}
		th.Advance(500_000)
		if err := l.ReleaseAttrBy(th, AttrSpinTime, agent); err != nil {
			t.Errorf("ReleaseAttrBy: %v", err)
		}
	})
	sys.Fork(1, "user", func(th *cthreads.Thread) {
		for i := 0; i < 20; i++ {
			l.Lock(th)
			th.Advance(1000)
			l.Unlock(th)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// While the agent held the attribute, internal adaptation decisions
	// were rejected, not applied.
	if l.Object().Stats().Rejected == 0 {
		t.Fatal("no adaptation decisions were rejected during external ownership")
	}
}

func TestObserverSeesWaiterCounts(t *testing.T) {
	sys := testSys(4)
	l := NewBlockingLock(sys, 0, "obs", DefaultCosts())
	maxSeen := -1
	l.SetObserver(func(now sim.Time, waiting int) {
		if waiting > maxSeen {
			maxSeen = waiting
		}
	})
	for i := 0; i < 4; i++ {
		sys.Fork(i, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for j := 0; j < 5; j++ {
				l.Lock(th)
				th.Advance(50_000)
				l.Unlock(th)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxSeen < 1 {
		t.Fatalf("observer saw max %d waiters; contention expected", maxSeen)
	}
	if l.Stats().MaxWaiting < 1 {
		t.Fatal("MaxWaiting not tracked")
	}
}

func TestFactoryUnknownKind(t *testing.T) {
	sys := testSys(1)
	if _, err := New(sys, Kind("bogus"), 0, "x", DefaultCosts()); err == nil {
		t.Fatal("New accepted bogus kind")
	}
}

// TestFactoryKindsErrorListsKinds checks the unknown-kind error names the
// valid kinds in sorted order.
func TestFactoryKindsErrorListsKinds(t *testing.T) {
	sys := testSys(1)
	_, err := New(sys, Kind("bogus"), 0, "x", DefaultCosts())
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	want := "valid kinds: adaptive, backoff, blocking, cohort, mutable, spin, tas"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Errorf("error %q does not list sorted kinds (%q)", got, want)
	}
}

// Property: for any mix of small thread counts, iteration counts and
// critical-section lengths, every lock kind preserves mutual exclusion and
// loses no increments.
func TestLockKindsQuickProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint32, threadsRaw, itersRaw uint8, kindIdx uint8) bool {
		kinds := Kinds()
		kind := kinds[int(kindIdx)%len(kinds)]
		nThreads := int(threadsRaw%4) + 2
		nIters := int(itersRaw%6) + 2
		sys := cthreads.New(sim.Config{
			Nodes: nThreads, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
			Instr: 1, ContextSwitch: 100, Wakeup: 200, Seed: uint64(seed) + 1,
		})
		l, err := New(sys, kind, 0, "prop", DefaultCosts())
		if err != nil {
			return false
		}
		counter := 0
		inside := false
		ok := true
		for i := 0; i < nThreads; i++ {
			sys.Fork(i, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
				for j := 0; j < nIters; j++ {
					l.Lock(th)
					if inside {
						ok = false
					}
					inside = true
					th.Advance(sim.Time(th.Rand().Intn(5000)))
					inside = false
					counter++
					l.Unlock(th)
					th.Advance(sim.Time(th.Rand().Intn(5000)))
				}
			})
		}
		if err := sys.Run(); err != nil {
			return false
		}
		return ok && counter == nThreads*nIters
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestChaosReconfiguration hammers an adaptive lock with workers while a
// chaos agent randomly rewrites its waiting policy and scheduler at run
// time. Whatever the configuration sequence, mutual exclusion and
// progress must hold.
func TestChaosReconfiguration(t *testing.T) {
	sys := testSys(6)
	l := NewAdaptiveLock(sys, 0, "chaos", DefaultCosts(), nil)
	inside := false
	counter := 0
	for i := 0; i < 5; i++ {
		sys.Fork(i, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for j := 0; j < 30; j++ {
				l.Lock(th)
				if inside {
					t.Error("mutual exclusion violated under reconfiguration chaos")
				}
				inside = true
				th.Advance(sim.Time(th.Rand().Intn(3000)))
				inside = false
				counter++
				l.Unlock(th)
				th.Advance(sim.Time(th.Rand().Intn(3000)))
			}
		})
	}
	sys.Fork(5, "chaos-agent", func(th *cthreads.Thread) {
		scheds := []string{SchedFCFS, SchedPriority, SchedHandoff}
		attrs := []string{AttrSpinTime, AttrDelayTime, AttrSleepTime, AttrTimeout}
		for k := 0; k < 60; k++ {
			th.Advance(sim.Time(th.Rand().Intn(10_000)))
			if th.Rand().Intn(3) == 0 {
				d := core.Decision{Method: MethodScheduler, Variant: scheds[th.Rand().Intn(len(scheds))]}
				if err := l.ConfigureBy(th, d, core.OwnerSelf); err != nil {
					t.Errorf("scheduler chaos: %v", err)
				}
				continue
			}
			attr := attrs[th.Rand().Intn(len(attrs))]
			var v int64
			switch attr {
			case AttrSpinTime:
				v = int64(th.Rand().Intn(100))
			case AttrDelayTime:
				v = int64(th.Rand().Intn(2000))
			case AttrSleepTime:
				v = int64(th.Rand().Intn(2))
			case AttrTimeout:
				v = int64(th.Rand().Intn(2)) * int64(20_000)
			}
			if err := l.ConfigureBy(th, core.Decision{Attr: attr, Value: v}, core.OwnerSelf); err != nil {
				t.Errorf("attr chaos (%s=%d): %v", attr, v, err)
			}
		}
		// Leave the lock in a live configuration so stragglers finish.
		_ = l.ConfigureBy(th, core.Decision{Attr: AttrSleepTime, Value: 1}, core.OwnerSelf)
		_ = l.ConfigureBy(th, core.Decision{Attr: AttrTimeout, Value: 0}, core.OwnerSelf)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != 150 {
		t.Fatalf("counter = %d, want 150", counter)
	}
}

func TestWaitHistogramRecords(t *testing.T) {
	sys := testSys(4)
	l := NewBlockingLock(sys, 0, "hist", DefaultCosts())
	h := metrics.NewHistogram("waits")
	l.SetWaitHistogram(h)
	exerciseMutex(t, sys, l, 4, 10, false)
	if h.Count() != 40 {
		t.Fatalf("histogram samples = %d, want 40", h.Count())
	}
	if h.Max() <= 0 {
		t.Fatal("no waits recorded despite contention")
	}
}

// Property: the extension locks (advisory, MCS local-spin) also preserve
// mutual exclusion under random small workloads.
func TestExtensionLocksQuickProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint32, threadsRaw, itersRaw, which uint8) bool {
		nThreads := int(threadsRaw%4) + 2
		nIters := int(itersRaw%5) + 2
		sys := cthreads.New(sim.Config{
			Nodes: nThreads, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
			Instr: 1, ContextSwitch: 100, Wakeup: 200, Seed: uint64(seed) + 1,
		})
		var l Lock
		if which%2 == 0 {
			l = NewAdvisoryLock(sys, 0, "adv", DefaultCosts())
		} else {
			l = NewLocalSpinLock(sys, 0, "mcs", DefaultCosts())
		}
		counter := 0
		inside := false
		ok := true
		for i := 0; i < nThreads; i++ {
			sys.Fork(i, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
				for j := 0; j < nIters; j++ {
					l.Lock(th)
					if inside {
						ok = false
					}
					inside = true
					th.Advance(sim.Time(th.Rand().Intn(4000)))
					inside = false
					counter++
					l.Unlock(th)
					th.Advance(sim.Time(th.Rand().Intn(4000)))
				}
			})
		}
		if err := sys.Run(); err != nil {
			return false
		}
		return ok && counter == nThreads*nIters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
