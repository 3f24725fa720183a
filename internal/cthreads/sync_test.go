package cthreads

import (
	"testing"

	"repro/internal/sim"
)

func TestBarrierReleasesTogether(t *testing.T) {
	s := New(testConfig(4))
	bar := s.NewBarrier("bar", 4)
	var releases []sim.Time
	lastCount := 0
	for i := 0; i < 4; i++ {
		delay := sim.Time((i + 1) * 20_000)
		s.Fork(i, "w", func(th *Thread) {
			th.Advance(delay)
			if bar.Arrive(th) {
				lastCount++
			}
			releases = append(releases, th.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lastCount != 1 {
		t.Fatalf("%d threads thought they were last, want 1", lastCount)
	}
	// Nobody is released before the last arrival (80ms).
	for _, r := range releases {
		if r < 80_000 {
			t.Fatalf("a thread left the barrier at %v, before the last arrival", r)
		}
	}
	if bar.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", bar.Generation())
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	s := New(testConfig(3))
	bar := s.NewBarrier("bar", 3)
	phases := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		s.Fork(i, "w", func(th *Thread) {
			for p := 0; p < 4; p++ {
				th.Advance(sim.Time(th.Rand().Intn(10_000)))
				bar.Arrive(th)
				phases[i]++
				// Everyone must be in the same phase right after release.
				for j := range phases {
					if phases[j] < phases[i]-1 || phases[j] > phases[i]+1 {
						t.Errorf("phase skew: %v", phases)
					}
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bar.Generation() != 4 {
		t.Fatalf("generation = %d, want 4", bar.Generation())
	}
}

func TestBarrierSpinWaitMode(t *testing.T) {
	s := New(testConfig(2))
	bar := s.NewBarrier("bar", 2)
	bar.SpinWait = 500
	var busy sim.Time
	s.Fork(0, "early", func(th *Thread) {
		bar.Arrive(th)
		busy = th.Busy()
	})
	s.Fork(1, "late", func(th *Thread) {
		th.Advance(100_000)
		bar.Arrive(th)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The early arrival burned its wait spinning, not sleeping.
	if busy < 90_000 {
		t.Fatalf("spin-waiting arrival busy only %v", busy)
	}
}
