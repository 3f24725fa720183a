package locks

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/sim"
)

// within reports whether got is within tol (a fraction) of want.
func within(got, want sim.Time, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return float64(d) <= tol*float64(want)
}

// TestMutableEstimateConvergence drives constant holds through the lock
// and checks the EWMA estimate converges to them — including after a step
// change in the hold time.
func TestMutableEstimateConvergence(t *testing.T) {
	sys := testSys(1)
	l := NewMutableLock(sys, 0, "m")
	const short, long = 50 * sim.Microsecond, 200 * sim.Microsecond
	var afterShort, afterLong sim.Time
	sys.Fork(0, "w", func(th *cthreads.Thread) {
		for i := 0; i < 40; i++ {
			l.Lock(th)
			th.Advance(short)
			l.Unlock(th)
		}
		afterShort, _ = l.Estimate()
		for i := 0; i < 40; i++ {
			l.Lock(th)
			th.Advance(long)
			l.Unlock(th)
		}
		afterLong, _ = l.Estimate()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Estimate(); !ok {
		t.Fatal("estimate still invalid after 80 holds")
	}
	if !within(afterShort, short, 0.1) {
		t.Errorf("estimate after short holds = %v, want within 10%% of %v", afterShort, short)
	}
	if !within(afterLong, long, 0.1) {
		t.Errorf("estimate after step change = %v, want within 10%% of %v", afterLong, long)
	}
}

// TestMutableColdStart checks that a contended arrival before any hold has
// been observed takes the cold-start spin-then-block path rather than
// trusting a zero estimate.
func TestMutableColdStart(t *testing.T) {
	sys := testSys(2)
	l := NewMutableLock(sys, 0, "cold")
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(200 * sim.Microsecond) // far beyond the cold spin budget
		l.Unlock(th)
	})
	sys.Fork(1, "waiter", func(th *cthreads.Thread) {
		th.Advance(sim.Microsecond) // arrive while the holder is inside
		l.Lock(th)
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	p := l.Prediction()
	if p.Cold == 0 {
		t.Errorf("cold-start arrivals = 0, want >= 1 (prediction stats: %+v)", p)
	}
	if p.Spin+p.SpinBlock+p.Block != 0 {
		t.Errorf("predictor classified arrivals before any estimate existed: %+v", p)
	}
	if l.Stats().Blocks == 0 {
		t.Errorf("cold-start waiter never blocked despite a %v hold", 200*sim.Microsecond)
	}
}

// TestMutableDecisionClasses checks the three-way predictive decision:
// short predicted waits spin, long ones block immediately, and the
// calibration record accumulates predicted-vs-actual pairs.
func TestMutableDecisionClasses(t *testing.T) {
	run := func(hold sim.Time) (PredictionStats, Stats) {
		sys := testSys(2)
		l := NewMutableLock(sys, 0, "d")
		for i := 0; i < 2; i++ {
			sys.Fork(i, fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
				for j := 0; j < 30; j++ {
					l.Lock(th)
					th.Advance(hold)
					l.Unlock(th)
					th.Advance(hold / 2)
				}
			})
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return l.Prediction(), l.Stats()
	}

	// testSys block cost ≈ 100 (switch) + 200 (wakeup) + 8 (post-wake) +
	// 40 (queue refs) ≈ 350ns. A 50ns hold predicts well under it; a
	// 100µs hold predicts far over 2× it.
	shortPred, shortStats := run(50)
	if shortPred.Spin == 0 {
		t.Errorf("short holds: no arrivals classified spin: %+v", shortPred)
	}
	if shortPred.Block != 0 {
		t.Errorf("short holds: %d arrivals blocked immediately, want 0: %+v", shortPred.Block, shortPred)
	}
	if shortStats.Blocks > shortPred.Cold {
		t.Errorf("short holds: %d sleeps for %d cold arrivals — predicted spins slept", shortStats.Blocks, shortPred.Cold)
	}

	longPred, longStats := run(100 * sim.Microsecond)
	if longPred.Block == 0 {
		t.Errorf("long holds: no arrivals classified block: %+v", longPred)
	}
	if longStats.Blocks == 0 {
		t.Error("long holds: predictor classified block but nobody slept")
	}
	if longPred.Samples == 0 || longPred.PredictedSum == 0 || longPred.ActualSum == 0 {
		t.Errorf("calibration record empty after contended run: %+v", longPred)
	}
}

// mutableFuzzFingerprint is everything a fuzz run produces that must be a
// pure function of the seed.
type mutableFuzzFingerprint struct {
	Estimate sim.Time
	Valid    bool
	Pred     PredictionStats
	Lock     Stats
	FinalNow sim.Time
}

// runMutableFuzz drives a randomized contended workload and returns the
// estimator-relevant fingerprint plus the largest hold the workload asked
// for.
func runMutableFuzz(t *testing.T, seed uint64, threads, iters int, holdSpread sim.Time) (mutableFuzzFingerprint, sim.Time) {
	t.Helper()
	cfg := sim.Config{
		Nodes: 4, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
		Instr: 1, ContextSwitch: 100, Wakeup: 200, Seed: seed,
	}
	sys := cthreads.New(cfg)
	l := NewMutableLock(sys, 0, "fuzz")
	var maxHold sim.Time
	for i := 0; i < threads; i++ {
		sys.Fork(i%sys.Procs(), fmt.Sprintf("w%d", i), func(th *cthreads.Thread) {
			r := th.Rand()
			for j := 0; j < iters; j++ {
				hold := sim.Time(r.Int63n(int64(holdSpread) + 1))
				if hold > maxHold {
					maxHold = hold
				}
				l.Lock(th)
				th.Advance(hold)
				l.Unlock(th)
				th.Advance(sim.Time(r.Intn(500)))
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	est, ok := l.Estimate()
	return mutableFuzzFingerprint{
		Estimate: est, Valid: ok, Pred: l.Prediction(), Lock: l.Stats(), FinalNow: sys.Now(),
	}, maxHold
}

// FuzzMutableEstimator feeds the estimator randomized hold patterns and
// asserts its invariants: the estimate is never negative, never exceeds
// the largest observed hold plus the lock's fixed release overhead, and
// two identical runs produce byte-identical estimates and prediction
// statistics — the estimator is a pure function of virtual time, so any
// wall-clock input would break this immediately.
func FuzzMutableEstimator(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(10), uint32(300))
	f.Add(uint64(7), uint8(4), uint8(8), uint32(100_000))
	f.Add(uint64(42), uint8(6), uint8(5), uint32(0))
	f.Fuzz(func(t *testing.T, seed uint64, threads, iters uint8, spread uint32) {
		nThreads := int(threads%6) + 1
		nIters := int(iters%12) + 2
		holdSpread := sim.Time(spread % 200_000)
		fp, maxHold := runMutableFuzz(t, seed%1000+1, nThreads, nIters, holdSpread)
		again, _ := runMutableFuzz(t, seed%1000+1, nThreads, nIters, holdSpread)
		if !reflect.DeepEqual(fp, again) {
			t.Errorf("estimator not deterministic:\nfirst:  %+v\nsecond: %+v", fp, again)
		}
		if fp.Estimate < 0 {
			t.Errorf("estimate is negative: %v", fp.Estimate)
		}
		// A measured hold is the caller's Advance plus the release path's
		// fixed entry work (AdaptUnlockSteps instructions + one access);
		// the EWMA stays inside the convex hull of its inputs.
		overhead := sim.Time(AdaptUnlockSteps) + 40
		if fp.Estimate > maxHold+overhead {
			t.Errorf("estimate %v exceeds max observed hold %v + overhead %v", fp.Estimate, maxHold, overhead)
		}
		if !fp.Valid && fp.Lock.Acquisitions > 0 {
			t.Errorf("estimate invalid after %d acquisitions", fp.Lock.Acquisitions)
		}
	})
}
