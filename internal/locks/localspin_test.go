package locks

import (
	"fmt"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/sim"
)

func TestLocalSpinMutualExclusion(t *testing.T) {
	sys := testSys(4)
	l := NewLocalSpinLock(sys, 0, "mcs")
	exerciseMutex(t, sys, l, 4, 25, false)
	if l.Stats().Acquisitions != 100 {
		t.Fatalf("acquisitions = %d, want 100", l.Stats().Acquisitions)
	}
}

func TestLocalSpinFIFOOrder(t *testing.T) {
	sys := testSys(4)
	l := NewLocalSpinLock(sys, 0, "mcs")
	var order []string
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(500_000)
		l.Unlock(th)
	})
	for i := 1; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		delay := sim.Time(i * 10_000)
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
			t.Fatalf("grant order = %v, want %v (MCS is FIFO)", order, want)
		}
	}
}

func TestLocalSpinWaitersSpinLocally(t *testing.T) {
	// With module contention enabled, a waiter of the MCS lock must not
	// touch the lock's home module while spinning; all its spin traffic
	// lands on its own node.
	cfg := sim.Config{
		Nodes: 2, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5,
		Instr: 1, ContextSwitch: 100, Wakeup: 200, Seed: 1,
		ModuleService: 5,
	}
	sys := cthreads.New(cfg)
	l := NewLocalSpinLock(sys, 0, "mcs")
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(200_000)
		l.Unlock(th)
	})
	sys.Fork(1, "waiter", func(th *cthreads.Thread) {
		th.Advance(1000)
		l.Lock(th)
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	home := sys.Machine().ModuleAccesses(0)
	local := sys.Machine().ModuleAccesses(1)
	// The waiter spun ~200µs at ~12ns/iteration on node 1: thousands of
	// local accesses; node 0 sees only the handful of queue operations.
	if local < 100*home {
		t.Fatalf("module accesses: home=%d local=%d; MCS spin traffic must stay local", home, local)
	}
}

func TestLocalSpinManyContenders(t *testing.T) {
	sys := testSys(8)
	l := NewLocalSpinLock(sys, 0, "mcs")
	exerciseMutex(t, sys, l, 8, 10, false)
}

func TestLocalSpinUnlockByNonOwnerPanics(t *testing.T) {
	sys := testSys(2)
	l := NewLocalSpinLock(sys, 0, "mcs")
	sys.Fork(0, "holder", func(th *cthreads.Thread) {
		l.Lock(th)
		th.Advance(50_000)
		l.Unlock(th)
	})
	sys.Fork(1, "intruder", func(th *cthreads.Thread) {
		th.Advance(1000)
		defer func() {
			if recover() == nil {
				t.Error("Unlock by non-owner did not panic")
			}
		}()
		l.Unlock(th)
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
