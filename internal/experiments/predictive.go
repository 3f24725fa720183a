package experiments

import (
	"fmt"

	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
)

// CalibRow is the mutable lock's prediction record at one contention
// level: how the waiters were classified and how well the predicted waits
// tracked the waits that actually happened.
type CalibRow struct {
	Waiters int
	Elapsed sim.Time
	// Decision-class counts over every contended arrival.
	Spin, SpinBlock, Block, Cold uint64
	// Mean predicted and actual wait over the calibrated arrivals, and the
	// mean absolute prediction error.
	MeanPredicted sim.Time
	MeanActual    sim.Time
	MeanAbsErr    sim.Time
}

// MutableCalibration contends a predictive mutable lock at several waiter
// counts and reports the predicted-vs-actual wait calibration
// (repro calib). Each waiter runs on its own processor, holds
// the lock for a fixed critical section, and pauses a seeded-random gap —
// the regime where the hold-time estimate is informative and the
// per-arrival decision is a genuine three-way choice.
func MutableCalibration(e Env) ([]CalibRow, error) {
	counts := []int{2, 8, 32}
	return sweep(e, len(counts), func(i int) (CalibRow, error) {
		waiters := counts[i]
		m := e.Machine
		if m.Nodes < waiters {
			m.Nodes = waiters
		}
		if m.Seed == 0 {
			m.Seed = 1
		}
		sys := cthreads.New(m)
		l := locks.NewMutableLock(sys, 0, "calib")
		for w := 0; w < waiters; w++ {
			sys.Fork(w, fmt.Sprintf("w%d", w), func(t *cthreads.Thread) {
				r := t.Rand()
				for j := 0; j < 25; j++ {
					l.Lock(t)
					t.Advance(20 * sim.Microsecond)
					l.Unlock(t)
					t.Advance(sim.Time(r.Intn(40_000)))
				}
			})
		}
		if err := sys.Run(); err != nil {
			return CalibRow{}, fmt.Errorf("calibration waiters=%d: %w", waiters, err)
		}
		p := l.Prediction()
		row := CalibRow{
			Waiters: waiters,
			Elapsed: sys.Now(),
			Spin:    p.Spin, SpinBlock: p.SpinBlock, Block: p.Block, Cold: p.Cold,
		}
		if p.Samples > 0 {
			n := sim.Time(p.Samples)
			row.MeanPredicted = p.PredictedSum / n
			row.MeanActual = p.ActualSum / n
			row.MeanAbsErr = p.AbsErrSum / n
		}
		return row, nil
	})
}

// CohortRow compares waiting representations at one machine size on a
// NUMA-contended workload: total execution time and how often the lock
// crossed nodes between consecutive owners.
type CohortRow struct {
	Nodes   int
	PerNode int
	// Elapsed per lock kind.
	Spin, MCS, Cohort sim.Time
	// Remote transfers (owner on a different node than the previous owner)
	// per lock kind.
	SpinRemote, MCSRemote, CohortRemote uint64
	// LocalHandoffs is the cohort lock's count of intra-node handoffs.
	LocalHandoffs uint64
}

// CohortNUMA reproduces the cohort-locking result on the simulated NUMA
// machine: with several threads per node under preemptive timeslicing,
// the cohort lock keeps consecutive acquisitions on the releasing node
// (paying the 1:4 remote latency only on cohort handoff), while the
// node-oblivious spin and MCS locks bounce the lock word across nodes on
// nearly every handover. The quantum matters: with one processor per
// node, same-node waiters only spin concurrently with their owner when
// the owner can be preempted.
func CohortNUMA(e Env) ([]CohortRow, error) {
	if e.Machine.Quantum == 0 {
		e.Machine.Quantum = 200 * sim.Microsecond
	}
	const perNode = 3
	counts := []int{2, 4, 8}
	return sweep(e, len(counts), func(i int) (CohortRow, error) {
		nodes := counts[i]
		m := e.Machine
		if m.Nodes < nodes {
			m.Nodes = nodes
		}
		if m.Seed == 0 {
			m.Seed = 1
		}
		run := func(mk func(sys *cthreads.System) locks.Lock) (sim.Time, locks.Lock, error) {
			sys := cthreads.New(m)
			l := mk(sys)
			for node := 0; node < nodes; node++ {
				for k := 0; k < perNode; k++ {
					sys.Fork(node, fmt.Sprintf("n%dw%d", node, k), func(t *cthreads.Thread) {
						r := t.Rand()
						for j := 0; j < 15; j++ {
							l.Lock(t)
							t.Advance(20 * sim.Microsecond)
							l.Unlock(t)
							t.Advance(sim.Time(r.Intn(60_000)))
						}
					})
				}
			}
			if err := sys.Run(); err != nil {
				return 0, nil, err
			}
			return sys.Now(), l, nil
		}
		spinT, spinL, err := run(func(sys *cthreads.System) locks.Lock {
			return locks.NewSpinLock(sys, 0, "spin")
		})
		if err != nil {
			return CohortRow{}, fmt.Errorf("cohort-numa spin nodes=%d: %w", nodes, err)
		}
		mcsT, mcsL, err := run(func(sys *cthreads.System) locks.Lock {
			return locks.NewLocalSpinLock(sys, 0, "mcs")
		})
		if err != nil {
			return CohortRow{}, fmt.Errorf("cohort-numa mcs nodes=%d: %w", nodes, err)
		}
		var cohort *locks.CohortLock
		cohortT, _, err := run(func(sys *cthreads.System) locks.Lock {
			cohort = locks.NewCohortLock(sys, 0, "cohort")
			return cohort
		})
		if err != nil {
			return CohortRow{}, fmt.Errorf("cohort-numa cohort nodes=%d: %w", nodes, err)
		}
		return CohortRow{
			Nodes: nodes, PerNode: perNode,
			Spin: spinT, MCS: mcsT, Cohort: cohortT,
			SpinRemote:    spinL.Stats().RemoteTransfers,
			MCSRemote:     mcsL.Stats().RemoteTransfers,
			CohortRemote:  cohort.Stats().RemoteTransfers,
			LocalHandoffs: cohort.Cohort().LocalHandoffs,
		}, nil
	})
}
