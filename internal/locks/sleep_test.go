package locks

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/sim"
	"repro/internal/trace"
)

// grantRaceRun is one run of the grant-before-sleep race: a holder takes
// the lock at time 0 and holds it for hold; a waiter arrives at 500ns,
// finds it held and registers to sleep; a barger arrives at bargeAt and
// holds the lock for 1µs. With the right timing the holder's release
// grants the registered waiter, and the barger takes the freed word
// before the waiter's re-test.
type grantRaceRun struct {
	waiterAcq, bargerAcq, bargerRel sim.Time
	timeouts                        int
	stats                           Stats
	// lockBlocked and threadBlocks count KindLockBlocked and
	// KindThreadBlock events: the lock's traced sleeps and the threads'
	// real ones.
	lockBlocked, threadBlocks int
}

func runGrantRace(t *testing.T, build func(sys *cthreads.System) Lock, hold, bargeAt sim.Time) grantRaceRun {
	t.Helper()
	sys := testSys(3)
	tr := trace.New(1 << 12)
	sys.SetTracer(tr)
	l := build(sys)
	var r grantRaceRun
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		if a, ok := l.(*AdvisoryLock); ok {
			a.LockHint(th, sim.Millisecond) // advise requesters to sleep
		} else {
			l.Lock(th)
		}
		th.Advance(hold)
		l.Unlock(th)
	})
	sys.Fork(1, "waiter", func(th *cthreads.Thread) {
		th.Advance(500)
		l.Lock(th)
		r.waiterAcq = th.Now()
		l.Unlock(th)
	})
	sys.Fork(2, "barger", func(th *cthreads.Thread) {
		th.Advance(bargeAt)
		l.Lock(th)
		r.bargerAcq = th.Now()
		th.Advance(sim.Microsecond)
		r.bargerRel = th.Now()
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	r.timeouts = sys.Stats().Timeouts
	r.stats = l.Stats()
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindLockBlocked:
			r.lockBlocked++
		case trace.KindThreadBlock:
			r.threadBlocks++
		}
	}
	return r
}

// TestGrantBeforeSleep pins the sleep step's two rules on the
// grant-before-sleep race, for every lock kind that re-contends after a
// grant: a waiter whose grant arrived between registering and sleeping
// does not sleep (under a timeout it would sleep the timeout out, because
// the grant removed it from the queue and nobody wakes it again), and
// Stats.Blocks and KindLockBlocked count only real sleeps. Each row's
// timings put the barger's first probe between the holder's grant and the
// waiter's re-test.
func TestGrantBeforeSleep(t *testing.T) {
	for _, c := range []struct {
		name          string
		hold, bargeAt sim.Time
		build         func(sys *cthreads.System) Lock
	}{
		{"reconfigurable-timed", 360, 565, func(sys *cthreads.System) Lock {
			l := NewReconfigurableLock(sys, 0, "timed", DefaultCosts(), 0)
			l.SetupPolicy(0, 0, 1, int64(sim.Millisecond))
			return l
		}},
		{"reconfigurable", 360, 565, func(sys *cthreads.System) Lock {
			l := NewReconfigurableLock(sys, 0, "untimed", DefaultCosts(), 0)
			l.SetupPolicy(0, 0, 1, 0)
			return l
		}},
		{"mutable", 800, 800, func(sys *cthreads.System) Lock { return NewMutableLock(sys, 0, "mutable", DefaultCosts()) }},
		{"advisory", 520, 565, func(sys *cthreads.System) Lock { return NewAdvisoryLock(sys, 0, "advisory", DefaultCosts()) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := runGrantRace(t, c.build, c.hold, c.bargeAt)
			if r.bargerAcq >= r.waiterAcq {
				t.Fatalf("scenario drifted: barger acquired at %v, after the waiter at %v", r.bargerAcq, r.waiterAcq)
			}
			if r.timeouts != 0 {
				t.Errorf("%d sleeps timed out; a granted waiter must re-contend at once", r.timeouts)
			}
			if lag := r.waiterAcq - r.bargerRel; lag > 10*sim.Microsecond {
				t.Errorf("waiter acquired %v after the barger's release, want it served by that release", lag)
			}
			if r.threadBlocks != 1 {
				t.Errorf("threads slept %d times, want 1 (the waiter, once, behind the barger)", r.threadBlocks)
			}
			if r.stats.Blocks != uint64(r.threadBlocks) || r.lockBlocked != r.threadBlocks {
				t.Errorf("Stats.Blocks = %d and KindLockBlocked = %d, want both = %d real sleeps",
					r.stats.Blocks, r.lockBlocked, r.threadBlocks)
			}
		})
	}
}

// sleepingFuzzCase is one FuzzSleepingLocks input, decoded.
type sleepingFuzzCase struct {
	seed           uint64
	kind           Kind
	threads, iters int
	holdSpread     sim.Time
	quantum        sim.Time
	spin, delay    int64 // adaptive lock's initial waiting policy
	sleep, timeout int64
	sched          string // adaptive lock's scheduler variant
}

// runSleepingFuzz drives one sleeping lock with c's workload, checking
// mutual exclusion as it goes, and returns the run's fingerprint: the
// acquisition order, the lock's and the thread package's counters, and
// the final virtual time.
func runSleepingFuzz(t *testing.T, c sleepingFuzzCase) string {
	t.Helper()
	sys := cthreads.New(sim.Config{
		Nodes: 4, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
		Instr: 1, ContextSwitch: 100, Wakeup: 200, Seed: c.seed, Quantum: c.quantum,
	})
	var l Lock
	if c.kind == "advisory" {
		l = NewAdvisoryLock(sys, 0, "fuzz", DefaultCosts())
	} else {
		l = MustNew(sys, c.kind, 0, "fuzz", DefaultCosts())
	}
	adaptive, _ := l.(*AdaptiveLock)
	if adaptive != nil {
		adaptive.SetupPolicy(c.spin, c.delay, c.sleep, c.timeout)
		if _, err := adaptive.Object().Methods.Install(MethodScheduler, c.sched); err != nil {
			t.Fatal(err)
		}
	}
	var fp strings.Builder
	inside, done := false, 0
	threads := make([]*cthreads.Thread, c.threads)
	for i := range threads {
		threads[i] = sys.Fork(i%sys.Procs(), fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			r := th.Rand()
			th.SetPriority(r.Intn(4))
			for j := 0; j < c.iters; j++ {
				hold := sim.Time(r.Int63n(int64(c.holdSpread) + 1))
				if a, ok := l.(*AdvisoryLock); ok {
					a.LockHint(th, hold)
				} else {
					l.Lock(th)
				}
				if inside {
					t.Errorf("mutual exclusion violated: %s entered an occupied section", th.Name())
				}
				inside = true
				fmt.Fprintf(&fp, "%s@%d ", th.Name(), th.Now())
				th.Advance(hold)
				inside = false
				done++
				if adaptive != nil {
					adaptive.SetSuccessor(threads[r.Intn(len(threads))])
				}
				l.Unlock(th)
				th.Advance(sim.Time(r.Intn(2000)))
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	if want := c.threads * c.iters; done != want {
		t.Fatalf("%+v: %d of %d acquisitions completed", c, done, want)
	}
	fmt.Fprintf(&fp, "\nlock %+v\nthreads %+v\nend %d\n", l.Stats(), sys.Stats(), sys.Now())
	return fp.String()
}

// FuzzSleepingLocks drives the four sleeping lock kinds — blocking,
// adaptive, mutable and advisory, which share the sleep and grant steps —
// with random thread counts, hold times, time slices, waiting policies
// and schedulers, and asserts mutual exclusion, no deadlock, that every
// requested acquisition completes, and that two identical runs give
// identical fingerprints.
func FuzzSleepingLocks(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(5), uint8(6), uint32(3000), uint32(0))
	f.Add(uint64(2), uint8(1), uint8(8), uint8(5), uint32(300_000), uint32(0x1c3))
	f.Add(uint64(3), uint8(1), uint8(6), uint8(4), uint32(5000), uint32(0x2e5))
	f.Add(uint64(4), uint8(2), uint8(7), uint8(6), uint32(400_000), uint32(0x100))
	f.Add(uint64(5), uint8(3), uint8(6), uint8(6), uint32(300_000), uint32(0x07f))
	// Zero-length holds: grants race registrations on every release.
	f.Add(uint64(102), uint8(0), uint8(4), uint8(5), uint32(0), uint32(292))
	kinds := []Kind{KindBlocking, KindAdaptive, KindMutable, "advisory"}
	scheds := []string{SchedFCFS, SchedPriority, SchedHandoff}
	f.Fuzz(func(t *testing.T, seed uint64, kind, threads, iters uint8, spread, policy uint32) {
		c := sleepingFuzzCase{
			seed:       seed%1000 + 1,
			kind:       kinds[int(kind)%len(kinds)],
			threads:    int(threads%8) + 1,
			iters:      int(iters%8) + 1,
			holdSpread: sim.Time(spread % 400_000),
			spin:       int64(policy % 16),
			delay:      int64(policy>>4%3) * 50,
			sleep:      int64(policy >> 6 % 2),
			timeout:    int64(policy>>7%3) * 2000,
			sched:      scheds[int(policy>>9)%len(scheds)],
		}
		if policy>>11%2 == 1 {
			c.quantum = 50 * sim.Microsecond
		}
		if fp, again := runSleepingFuzz(t, c), runSleepingFuzz(t, c); fp != again {
			t.Errorf("%+v: two identical runs differ:\nfirst:  %s\nsecond: %s", c, fp, again)
		}
	})
}
