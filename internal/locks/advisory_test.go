package locks

import (
	"testing"

	"repro/internal/cthreads"
	"repro/internal/sim"
)

func TestAdvisoryMutualExclusion(t *testing.T) {
	sys := testSys(4)
	l := NewAdvisoryLock(sys, 0, "adv")
	exerciseMutex(t, sys, l, 4, 20, false)
}

func TestAdvisoryShortHoldAdvisesSpin(t *testing.T) {
	sys := testSys(2)
	l := NewAdvisoryLock(sys, 0, "adv")
	l.Threshold = 100 * sim.Microsecond
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.LockHint(th, 50*sim.Microsecond) // short: advise spin
		th.Advance(50 * sim.Microsecond)
		l.Unlock(th)
	})
	sys.Fork(1, "waiter", func(th *cthreads.Thread) {
		th.Advance(10 * sim.Microsecond)
		l.Lock(th)
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := l.Stats()
	if st.Blocks != 0 {
		t.Fatalf("waiter slept (%d blocks) despite spin advice", st.Blocks)
	}
	if st.SpinIters == 0 {
		t.Fatal("waiter never spun")
	}
}

func TestAdvisoryLongHoldAdvisesSleep(t *testing.T) {
	sys := testSys(2)
	l := NewAdvisoryLock(sys, 0, "adv")
	l.Threshold = 100 * sim.Microsecond
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.LockHint(th, 5*sim.Millisecond) // long: advise sleep
		th.Advance(5 * sim.Millisecond)
		l.Unlock(th)
	})
	var waiterBusy sim.Time
	sys.Fork(1, "waiter", func(th *cthreads.Thread) {
		th.Advance(10 * sim.Microsecond)
		l.Lock(th)
		waiterBusy = th.Busy()
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if l.Stats().Blocks == 0 {
		t.Fatal("waiter never slept despite sleep advice")
	}
	if waiterBusy > sim.Millisecond {
		t.Fatalf("waiter burned %v spinning during a 5ms advised-sleep hold", waiterBusy)
	}
}

func TestAdvisoryMidSectionAdviceChange(t *testing.T) {
	sys := testSys(2)
	l := NewAdvisoryLock(sys, 0, "adv")
	l.Threshold = 100 * sim.Microsecond
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.LockHint(th, 5*sim.Millisecond) // phase 1: long
		th.Advance(2 * sim.Millisecond)
		l.Advise(th, 20*sim.Microsecond) // phase 2: nearly done — spin now
		th.Advance(20 * sim.Microsecond)
		l.Unlock(th)
	})
	sys.Fork(1, "waiter", func(th *cthreads.Thread) {
		// Arrive during phase 2: the advice says spin.
		th.Advance(2*sim.Millisecond + 5*sim.Microsecond)
		l.Lock(th)
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if l.Stats().Blocks != 0 {
		t.Fatalf("late waiter slept (%d blocks) despite updated spin advice", l.Stats().Blocks)
	}
}

func TestAdviseByNonOwnerPanics(t *testing.T) {
	sys := testSys(2)
	l := NewAdvisoryLock(sys, 0, "adv")
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(100_000)
		l.Unlock(th)
	})
	sys.Fork(1, "intruder", func(th *cthreads.Thread) {
		th.Advance(1000)
		defer func() {
			if recover() == nil {
				t.Error("Advise by non-owner did not panic")
			}
		}()
		l.Advise(th, 0)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAdvisorySleepersWakeOnRelease(t *testing.T) {
	sys := testSys(4)
	l := NewAdvisoryLock(sys, 0, "adv")
	l.Threshold = 10 * sim.Microsecond
	acquired := 0
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.LockHint(th, 3*sim.Millisecond)
		th.Advance(3 * sim.Millisecond)
		l.Unlock(th)
	})
	for i := 1; i < 4; i++ {
		sys.Fork(i, "w", func(th *cthreads.Thread) {
			th.Advance(sim.Time(i) * 10 * sim.Microsecond)
			l.LockHint(th, 5*sim.Microsecond)
			acquired++
			th.Advance(5 * sim.Microsecond)
			l.Unlock(th)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if acquired != 3 {
		t.Fatalf("acquired = %d, want 3", acquired)
	}
}
