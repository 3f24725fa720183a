package locks

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// lockBuilder constructs the lock under test in a fresh system.
type lockBuilder struct {
	name  string
	build func(sys *cthreads.System) Lock
}

// spinBatchBuilders covers every busy-wait structure in the package: the
// raw TAS loop, the registered spin lock, exponential backoff (whose
// pause depends on the waiter count), the MCS-style local-spin queue, the
// reconfigurable lock in pure-spin and spin-then-block trims plus the
// adaptive lock that reconfigures mid-run, the predictive mutable lock,
// and the NUMA cohort lock.
func spinBatchBuilders() []lockBuilder {
	return []lockBuilder{
		{"tas", func(sys *cthreads.System) Lock { return NewTASLock(sys, 0, "tas") }},
		{"spin", func(sys *cthreads.System) Lock { return NewSpinLock(sys, 0, "spin") }},
		{"backoff", func(sys *cthreads.System) Lock { return NewBackoffSpinLock(sys, 0, "backoff") }},
		{"mcs", func(sys *cthreads.System) Lock { return NewLocalSpinLock(sys, 0, "mcs") }},
		{"pure-spin", func(sys *cthreads.System) Lock { return NewPureSpinConfigured(sys, 0, "pure-spin") }},
		{"combined-10", func(sys *cthreads.System) Lock { return NewReconfigurableLock(sys, 0, "combined", 10) }},
		{"adaptive", func(sys *cthreads.System) Lock { return NewAdaptiveLock(sys, 0, "adaptive", nil) }},
		{"mutable", func(sys *cthreads.System) Lock { return NewMutableLock(sys, 0, "mutable") }},
		{"cohort", func(sys *cthreads.System) Lock { return NewCohortLock(sys, 0, "cohort") }},
	}
}

// runLockWorkload drives nThreads × nIters contended critical sections
// over the built lock in one engine mode and fingerprints the run: the
// final clock, the lock and scheduler statistics, each thread's busy
// time, and each module's accesses and queue delay.
func runLockWorkload(t testing.TB, cfg sim.Config, b lockBuilder, nThreads, nIters int, mode simtest.Mode) string {
	t.Helper()
	sys := cthreads.New(cfg)
	mode.Set(sys.Engine())
	l := b.build(sys)
	counter := 0
	for i := 0; i < nThreads; i++ {
		sys.Fork(i%sys.Procs(), fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			r := th.Rand()
			for j := 0; j < nIters; j++ {
				l.Lock(th)
				th.Advance(sim.Time(50 + r.Intn(300)))
				counter++
				l.Unlock(th)
				th.Advance(sim.Time(r.Intn(500)))
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("%s: %v", b.name, err)
	}
	if counter != nThreads*nIters {
		t.Fatalf("%s: counter = %d, want %d", b.name, counter, nThreads*nIters)
	}
	var fp strings.Builder
	fmt.Fprintf(&fp, "final now=%d\nlock %+v\nsched %+v\n", sys.Now(), l.Stats(), sys.Stats())
	return threadsAndModules(&fp, sys)
}

// threadsAndModules ends a lock workload's fingerprint with each
// thread's busy time and each module's accesses and queue delay.
func threadsAndModules(fp *strings.Builder, sys *cthreads.System) string {
	for _, th := range sys.Threads() {
		fmt.Fprintf(fp, "busy %s: %d\n", th.Name(), th.Busy())
	}
	m := sys.Machine()
	for n := 0; n < m.Nodes(); n++ {
		fmt.Fprintf(fp, "module %d: accesses=%d queue-delay=%d\n", n, m.ModuleAccesses(n), m.ModuleQueueDelay(n))
	}
	return fp.String()
}

// spinBatchConfigs are the machine shapes the differential runs under:
// the fast test machine, the hot-spot machine (module contention feeds
// back into probe costs), and a quantum-limited multiprogrammed machine.
func spinBatchConfigs() []struct {
	name    string
	cfg     sim.Config
	threads int
} {
	fast := sim.Config{
		Nodes: 4, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
		Instr: 1, ContextSwitch: 100, Wakeup: 200, Seed: 1,
	}
	hot := sim.HotSpotConfig()
	hot.Nodes = 4
	hot.Seed = 1
	quantum := fast
	quantum.Quantum = 30 * sim.Microsecond
	return []struct {
		name    string
		cfg     sim.Config
		threads int
	}{
		{"fast", fast, 4},
		{"hotspot", hot, 4},
		{"quantum", quantum, 8}, // 2 threads per processor
	}
}

// TestSpinBatchingLockDifferential fingerprints every lock kind ×
// machine shape in every engine mode: simulated time, lock statistics,
// scheduler statistics, per-thread busy time, and per-module contention
// accounting must not drift by a single unit. Prediction, cohort handoff
// and adaptation read only virtual-time state, so no fast path may shift
// them either.
func TestSpinBatchingLockDifferential(t *testing.T) {
	for _, tc := range spinBatchConfigs() {
		for _, b := range spinBatchBuilders() {
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string {
					return runLockWorkload(t, tc.cfg, b, tc.threads, 6, m)
				})
			})
		}
	}
}

// FuzzModuleSpinAccountingDifferential attacks the fast path's hardest
// bookkeeping: with ModuleService > 0, every batched probe must still
// contribute its access, queue delay, and module reservation exactly as
// if issued one by one. The fuzzer varies the seed, service time,
// contention level, and lock kind.
func FuzzModuleSpinAccountingDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(4), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(8), uint8(3))
	f.Add(uint64(42), uint8(5), uint8(2), uint8(6))
	builders := spinBatchBuilders()
	f.Fuzz(func(t *testing.T, seed uint64, svcUnits, threads, kind uint8) {
		cfg := sim.Config{
			Nodes: 4, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
			Instr: 1, ContextSwitch: 100, Wakeup: 200,
			ModuleService: sim.Time(svcUnits%6+1) * 100 * sim.Nanosecond,
			Seed:          seed%1000 + 1,
		}
		b := builders[int(kind)%len(builders)]
		n := int(threads%8) + 2
		simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string {
			return runLockWorkload(t, cfg, b, n, 4, m)
		})
	})
}

// TestLocalSpinLockReleasesQnodes is the churn regression: a run that
// cycles through many short-lived threads must not leave one queue record
// (and one simulated cell) per dead thread in the lock's map.
func TestLocalSpinLockReleasesQnodes(t *testing.T) {
	sys := testSys(2)
	l := NewLocalSpinLock(sys, 0, "churn")
	const generations = 40
	sys.Fork(0, "driver", func(th *cthreads.Thread) {
		for g := 0; g < generations; g++ {
			w := sys.Fork(1, fmt.Sprintf("g%d", g), func(th *cthreads.Thread) {
				l.Lock(th)
				th.Advance(100)
				l.Unlock(th)
			})
			th.Join(w)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := l.retained(); got != 0 {
		t.Errorf("lock retains %d qnodes after all threads exited, want 0", got)
	}
	if got := l.Stats().Acquisitions; got != generations {
		t.Errorf("Acquisitions = %d, want %d", got, generations)
	}
}

// runFigure1Cell runs one Figure 1-shaped cell — 8 processors, 24
// threads, a 1 ms quantum, critical sections of length cs separated by
// 400 µs ± 100 µs of local work — under the given engine modes. With
// three threads per processor, spinners wait out whole quanta behind
// descheduled holders: the long, many-spinner epochs spin epochs commit.
// The fingerprint is the elapsed time, the lock, cohort and scheduler
// statistics, each thread's busy time and each module's traffic; the
// engine's mechanism counters come back beside it.
func runFigure1Cell(t *testing.T, build func(sys *cthreads.System) Lock, cs sim.Time, mode simtest.Mode) (string, sim.Stats) {
	t.Helper()
	sys := cthreads.New(sim.Config{Nodes: 8, Quantum: sim.Millisecond, Seed: 3})
	mode.Set(sys.Engine())
	l := build(sys)
	for i := 0; i < 24; i++ {
		sys.Fork(i%8, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for j := 0; j < 6; j++ {
				l.Lock(th)
				th.Advance(cs)
				l.Unlock(th)
				th.Advance(400*sim.Microsecond + th.Rand().Duration(200*sim.Microsecond) - 100*sim.Microsecond)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().SpinIters == 0 {
		t.Fatal("the cell never spun")
	}
	var fp strings.Builder
	fmt.Fprintf(&fp, "elapsed %d\nlock %+v\nsched %+v\n", sys.Now(), l.Stats(), sys.Stats())
	if c, ok := l.(*CohortLock); ok {
		fmt.Fprintf(&fp, "cohort %+v\n", c.Cohort())
	}
	return threadsAndModules(&fp, sys), sys.Engine().Stats()
}

// TestSpinEpochFigure1Differential runs Figure 1's spin-heavy strategies
// (pure spin, cohort, combined-50) and the backoff lock, whose volatile
// pause reads the spinner count, and the MCS lock, whose link wait has
// no probe cell, at a short and a long critical section in every engine
// mode: elapsed time, lock and cohort statistics, scheduler statistics,
// per-thread busy time and module traffic must be identical to the
// oracle's.
func TestSpinEpochFigure1Differential(t *testing.T) {
	strategies := []struct {
		name  string
		build func(sys *cthreads.System) Lock
	}{
		{"pure-spin", func(sys *cthreads.System) Lock { return NewPureSpinConfigured(sys, 0, "spin") }},
		{"cohort", func(sys *cthreads.System) Lock { return NewCohortLock(sys, 0, "cohort") }},
		{"combined-50", func(sys *cthreads.System) Lock {
			return NewReconfigurableLock(sys, 0, "combined50", 50)
		}},
		{"backoff", func(sys *cthreads.System) Lock { return NewBackoffSpinLock(sys, 0, "backoff") }},
		{"mcs", func(sys *cthreads.System) Lock { return NewLocalSpinLock(sys, 0, "mcs") }},
	}
	for _, s := range strategies {
		for _, cs := range []sim.Time{50 * sim.Microsecond, 500 * sim.Microsecond} {
			t.Run(fmt.Sprintf("%s/cs=%v", s.name, cs), func(t *testing.T) {
				simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string {
					fp, _ := runFigure1Cell(t, s.build, cs, m)
					return fp
				})
			})
		}
	}
}

// TestSpinEpochFigure1Engages proves that spin-epoch members outlive the
// dispatches that leave their probe cells alone, so the local-harm and
// lazy-member paths that TestSpinEpochFigure1Differential checks are not
// vacuous: in a Figure 1 cohort cell, members must be present at many
// dispatches and callbacks, bodies must advance inline past members'
// pops, and the closed form must take most of the spinning.
func TestSpinEpochFigure1Engages(t *testing.T) {
	build := func(sys *cthreads.System) Lock { return NewCohortLock(sys, 0, "cohort") }
	_, st := runFigure1Cell(t, build, 500*sim.Microsecond, simtest.Mode{Inline: true, Batched: true})
	if st.LaneSurvivals < st.Dispatches {
		t.Errorf("lane members survived %d dispatches and callbacks over %d dispatches: want at least one per dispatch",
			st.LaneSurvivals, st.Dispatches)
	}
	if st.LanePassed < st.LaneRefusals || st.LanePassed == 0 {
		t.Errorf("bodies passed members' pops inline %d times and were refused by the lane %d times: want more passes",
			st.LanePassed, st.LaneRefusals)
	}
	if st.BatchedIters < 10*st.SpinCharges {
		t.Errorf("commits took %d iterations against %d charges fired one at a time: want at least 10 times as many",
			st.BatchedIters, st.SpinCharges)
	}
}

// TestVolatileSpinNeverJoins pins that only persistent probe-cell
// spinners join the spin lane: the backoff lock's volatile pause (it
// reads the spinner count) and a spin-wait barrier's poll (it probes no
// cell) must spin one charge at a time, with no member ever applied in
// closed form.
func TestVolatileSpinNeverJoins(t *testing.T) {
	build := func(sys *cthreads.System) Lock { return NewBackoffSpinLock(sys, 0, "backoff") }
	_, backoff := runFigure1Cell(t, build, 500*sim.Microsecond, simtest.Mode{Inline: true, Batched: true})

	sys := cthreads.New(sim.Config{Nodes: 4, Seed: 5})
	bar := sys.NewBarrier("bar", 4)
	bar.SpinWait = 200 * sim.Nanosecond
	for i := 0; i < 4; i++ {
		sys.Fork(i, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			for g := 0; g < 20; g++ {
				th.Advance(sim.Time(1+th.Rand().Intn(50)) * sim.Microsecond)
				bar.Arrive(th)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		st   sim.Stats
	}{{"backoff", backoff}, {"barrier", sys.Engine().Stats()}} {
		if c.st.SpinCharges == 0 {
			t.Errorf("%s: no spin charge fired: the workload never spun", c.name)
		}
		if c.st.MemberCommits != 0 {
			t.Errorf("%s: %d lane members applied in closed form, want 0", c.name, c.st.MemberCommits)
		}
	}
}

// TestSpinPhaseAllocFree pins the spin phases of ReconfigurableLock and
// MutableLock allocation-free: each builds its spin spec once and copies
// it per phase, so a contended Lock/Unlock cycle — a holder on another
// processor keeps the word busy, so every Lock spins — allocates
// nothing once the run is warm.
func TestSpinPhaseAllocFree(t *testing.T) {
	builders := []struct {
		name  string
		build func(sys *cthreads.System) Lock
		hold  sim.Time // the holder's hold time
	}{
		{"reconfigurable", func(sys *cthreads.System) Lock {
			return NewReconfigurableLock(sys, 0, "r", 1<<30)
		}, 20 * sim.Microsecond},
		// Short holds: the predictive lock spins only when the predicted
		// wait is below the cost of blocking.
		{"mutable", func(sys *cthreads.System) Lock {
			return NewMutableLock(sys, 0, "m")
		}, 300},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			sys := testSys(2)
			l, hold := b.build(sys), b.hold
			done := false
			sys.Fork(1, "holder", func(th *cthreads.Thread) {
				for !done {
					l.Lock(th)
					th.Advance(hold)
					l.Unlock(th)
					th.Advance(50)
				}
			})
			var allocs float64
			var spins, blocks uint64
			sys.Fork(0, "spinner", func(th *cthreads.Thread) {
				cycle := func() {
					l.Lock(th)
					th.Advance(sim.Microsecond)
					l.Unlock(th)
					th.Advance(5 * sim.Microsecond)
				}
				for i := 0; i < 50; i++ {
					cycle()
				}
				before := l.Stats()
				allocs = testing.AllocsPerRun(100, cycle)
				after := l.Stats()
				spins, blocks = after.SpinIters-before.SpinIters, after.Blocks-before.Blocks
				done = true
			})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if spins == 0 || blocks > 0 {
				t.Fatalf("%d spin iterations, %d blocks: the measured cycles must spin and never block", spins, blocks)
			}
			if allocs != 0 {
				t.Errorf("contended Lock/Unlock allocated %.1f times per cycle, want 0", allocs)
			}
		})
	}
}
