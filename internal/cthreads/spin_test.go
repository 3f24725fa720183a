package cthreads

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

// runSpinThreadWorkload executes a workload built around Thread.SpinUntil
// under scheduling pressure: a solo spinner whose quantum keeps renewing,
// spinners sharing a processor with compute threads (so slice exhaustion
// preempts mid-spin), bounded warm-up spins, module contention on the
// probed cells, and a spin-wait barrier phase.
func runSpinThreadWorkload(t *testing.T, seed uint64, mode simtest.Mode) string {
	t.Helper()
	cfg := sim.Config{
		Nodes:         2,
		Quantum:       60 * sim.Microsecond,
		ModuleService: 300 * sim.Nanosecond,
		Seed:          seed,
	}
	sys := New(cfg)
	mode.Set(sys.Engine())
	m := sys.Machine()
	flags := []*sim.Cell{m.NewCell(0, "f0", 0), m.NewCell(1, "f1", 0)}
	var fp strings.Builder
	record := func(who string) {
		fmt.Fprintf(&fp, "%s@%d\n", who, sys.Now())
	}

	// Phase 1+2 — spinners wait for producer stores. Spinner s0 runs alone
	// on processor 1 (its slice renews at every boundary); spinner s1
	// shares processor 0 with the producer and a compute thread, so its
	// spin is cut by genuine preemptions.
	spinOn := func(th *Thread, cell *sim.Cell, pause sim.Time) {
		r := th.Rand()
		pre := sim.SpinSpec{
			ProbeCell: cell, ProbeAtomic: true,
			Probe:     func() bool { return cell.Peek() != 0 },
			PauseCost: func() sim.Time { return pause },
			MaxIters:  int64(r.Intn(6)),
		}
		iters, ok := th.SpinUntil(&pre)
		record(fmt.Sprintf("%s-pre-%d-%v", th.Name(), iters, ok))
		if !ok {
			spec := sim.SpinSpec{
				ProbeCell: cell, ProbeAtomic: true,
				Probe:     func() bool { return cell.Peek() != 0 },
				PauseCost: func() sim.Time { return pause },
				MaxIters:  sim.SpinUnbounded,
			}
			iters, _ = th.SpinUntil(&spec)
			record(fmt.Sprintf("%s-spun-%d", th.Name(), iters))
		}
	}
	sys.Fork(1, "s0", func(th *Thread) {
		spinOn(th, flags[0], 700*sim.Nanosecond)
		record("s0-done")
	})
	sys.Fork(0, "s1", func(th *Thread) {
		spinOn(th, flags[1], 900*sim.Nanosecond)
		record("s1-done")
	})
	sys.Fork(0, "crunch", func(th *Thread) {
		// Pure computation sharing s1's processor: forces slice-boundary
		// preemptions of the spin loop.
		th.Advance(400 * sim.Microsecond)
		record("crunch-done")
	})
	sys.Fork(0, "producer", func(th *Thread) {
		th.Advance(300 * sim.Microsecond)
		flags[0].Store(th, 1)
		record("flag0-set")
		th.Advance(200 * sim.Microsecond)
		flags[1].Store(th, 1)
		record("flag1-set")
	})

	// Phase 3 — a spin-wait barrier: parties arrive staggered and poll
	// through the skew.
	bar := sys.NewBarrier("bar", 3)
	bar.SpinWait = 2 * sim.Microsecond
	for i := 0; i < 3; i++ {
		i := i
		sys.Fork(i%cfg.Nodes, fmt.Sprintf("b%d", i), func(th *Thread) {
			for round := 0; round < 3; round++ {
				th.Advance(sim.Time(i+1) * sim.Time(round+1) * 40 * sim.Microsecond)
				if bar.Arrive(th) {
					record(fmt.Sprintf("b%d-tripped-r%d", i, round))
				}
			}
			record(fmt.Sprintf("b%d-done", i))
		})
	}

	if err := sys.Run(); err != nil {
		t.Fatalf("seed %d %v: %v", seed, mode, err)
	}
	return threadFingerprint(t, &fp, sys)
}

// TestSpinBatchingThreadDifferential holds the scheduler to the spin
// batching contract: in every engine mode the workload's event log,
// scheduler statistics, per-thread accounting, and module contention
// are identical.
func TestSpinBatchingThreadDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string { return runSpinThreadWorkload(t, seed, m) })
	}
}

// TestSpinQuantumRenewalSolo pins the solo-spinner slice rule: a spinner
// with an empty ready queue renews its slice at each boundary instead of
// being preempted, so a long spin on an idle processor costs zero
// preemptions and zero context switches beyond dispatch — batched or not.
func TestSpinQuantumRenewalSolo(t *testing.T) {
	for _, batched := range []bool{false, true} {
		sys := New(sim.Config{Nodes: 2, Quantum: 50 * sim.Microsecond})
		sys.Engine().SetBatchedSpins(batched)
		flag := sys.Machine().NewCell(0, "flag", 0)
		var iters int64
		sys.Fork(1, "spinner", func(th *Thread) {
			spec := sim.SpinSpec{
				ProbeCell: flag,
				Probe:     func() bool { return flag.Peek() != 0 },
				PauseCost: func() sim.Time { return sim.Microsecond },
				MaxIters:  sim.SpinUnbounded,
			}
			iters, _ = th.SpinUntil(&spec)
		})
		sys.Fork(0, "producer", func(th *Thread) {
			th.Advance(2 * sim.Millisecond)
			flag.Store(th, 1)
		})
		if err := sys.Run(); err != nil {
			t.Fatalf("batched=%v: %v", batched, err)
		}
		if got := sys.Stats().Preemptions; got != 0 {
			t.Errorf("batched=%v: solo spinner preempted %d times, want 0", batched, got)
		}
		if iters == 0 {
			t.Errorf("batched=%v: spinner never spun", batched)
		}
	}
}
