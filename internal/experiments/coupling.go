package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CouplingRow is one feedback-loop structure's performance on the
// phase-changing workload.
type CouplingRow struct {
	Mode    string
	Elapsed sim.Time
	// DecisionLag is the mean collection-to-policy delay (0 for the
	// closely-coupled inline monitor, whose samples are consumed in the
	// probing context).
	DecisionLag sim.Time
	// Drops counts trace records lost to ring overflow (loose mode only).
	Drops uint64
}

// couplingWorkload runs the phase-alternating critical-section pattern on
// the given lock: even phases are light (short critical sections, long
// think times — spinning is right), odd phases heavy (the reverse —
// sleeping is right). probe, when non-nil, is invoked after every other
// unlock, mirroring the adaptive lock's built-in sampling rate.
func couplingWorkload(sys *cthreads.System, l locks.Lock, procs int,
	probe func(t *cthreads.Thread)) *sim.Time {
	var finished sim.Time
	// Two threads per processor under preemptive timeslicing: in heavy
	// phases sleeping frees the processor for the co-located thread, in
	// light phases spinning avoids wakeup costs — so the policy's timing
	// matters.
	for i := 0; i < 2*procs; i++ {
		sys.Fork(i%procs, fmt.Sprintf("w%d", i), func(t *cthreads.Thread) {
			n := 0
			for phase := 0; phase < 6; phase++ {
				cs, think := 5*sim.Microsecond, 300*sim.Microsecond
				if phase%2 == 1 {
					cs, think = 200*sim.Microsecond, 30*sim.Microsecond
				}
				for j := 0; j < 12; j++ {
					l.Lock(t)
					t.Advance(cs)
					l.Unlock(t)
					n++
					if probe != nil && n%2 == 0 {
						probe(t)
					}
					t.Advance(think)
				}
			}
			if t.Now() > finished {
				finished = t.Now()
			}
		})
	}
	return &finished
}

// CouplingComparison quantifies §3's feedback-loop coupling trade-off: the
// same SimpleAdapt policy drives the same lock on the same workload, once
// through the closely-coupled built-in monitor (the adaptive lock) and
// once through the general-purpose thread monitor of [GS93] — application
// threads deliver trace records to a monitor thread on a dedicated
// processor, which runs the policy on each record as it is processed.
//
// The measured difference is the *decision lag*: the inline loop reacts
// within the unlock that sampled the state, while the monitor-thread loop
// reacts a poll period (or more, under monitor load — see the ring-drop
// counter) after collection. On this workload the two perform comparably
// end to end because its phases are long relative to the lag; the paper's
// point — and what this experiment makes measurable — is that the loose
// loop's reaction time is bounded below by the trace pipeline, so it
// cannot track faster locking-pattern changes, while the inline loop's
// lag is structurally zero.
//
// e's observers, when set, are attached to both systems. The two runs
// are sequential, so their events share one virtual timeline restarting
// at zero; AdaptationLag separates them by lock name ("tight" vs
// "loose"). The ledger also receives one deliver entry per record the
// monitor thread processes, with its lag. In the loose run the monitor
// thread emits a KindSample carrying the record's *collection* time just
// before running the policy, so the trace-derived lag is the §5.1
// trace-pipeline delay; the tight lock's inline samples carry the
// consumption time and its lag is structurally near zero.
func CouplingComparison(e Env) ([]CouplingRow, error) {
	const procs = 8
	if e.Machine.Quantum == 0 {
		e.Machine.Quantum = 500 * sim.Microsecond
	}
	policy := core.SimpleAdapt{SpinAttr: locks.AttrSpinTime, WaitingThreshold: 2, Step: 10, MaxSpin: 1000}

	// Closely coupled: the adaptive lock's built-in monitor.
	tight := e.Machine
	if tight.Nodes < procs {
		tight.Nodes = procs
	}
	tightSys := cthreads.New(tight)
	e.attach(tightSys)
	tightLock := locks.NewAdaptiveLock(tightSys, 0, "tight", policy)
	tightDone := couplingWorkload(tightSys, tightLock, procs, nil)
	if err := tightSys.Run(); err != nil {
		return nil, fmt.Errorf("coupling tight: %w", err)
	}

	// Loosely coupled: a reconfigurable lock adapted by a monitor thread
	// on a dedicated ninth processor.
	loose := e.Machine
	if loose.Nodes < procs+1 {
		loose.Nodes = procs + 1
	}
	looseSys := cthreads.New(loose)
	e.attach(looseSys)
	looseLock := locks.NewReconfigurableLock(looseSys, 0, "loose", locks.DefaultInitialSpins)
	// The general-purpose monitor batches and polls (monitor's pipeline
	// costs), so decisions reach the lock a phase late.
	mon := monitor.NewLocal(looseSys, monitor.Config{Node: procs})
	mon.Subscribe(func(mt *cthreads.Thread, r monitor.Record) {
		if str := looseSys.Tracer(); str != nil {
			// The sample enters the policy now, but was collected at r.At:
			// the A field carries collection time so AdaptationLag reports
			// the pipeline's decision lag.
			str.Emit(trace.Event{At: mt.Now(), Kind: trace.KindSample,
				Proc: int32(mt.Node()), Thread: int32(mt.ID()),
				Name: "loose", A: int64(r.At), B: r.Value})
		}
		sample := core.Sample{Sensor: locks.SensorWaiting, Value: r.Value}
		for _, d := range policy.React(sample, looseLock.Object()) {
			// The monitor thread enacts the reconfiguration, paying the
			// configure(waiting policy) cost remotely.
			_ = looseLock.ConfigureBy(mt, d, core.OwnerSelf)
		}
	})
	mon.Start()
	looseDone := couplingWorkload(looseSys, looseLock, procs, func(t *cthreads.Thread) {
		mon.Probe(t, 0, int64(looseLock.Waiting()))
	})
	// Stop the monitor when the last worker finishes: a tiny supervisor
	// joins them all. Workers are threads 1..procs in fork order after
	// the monitor (index 0).
	workers := looseSys.Threads()[1:]
	looseSys.Fork(0, "supervisor", func(t *cthreads.Thread) {
		for _, w := range workers {
			t.Join(w)
		}
		mon.RequestStop()
	})
	if err := looseSys.Run(); err != nil {
		return nil, fmt.Errorf("coupling loose: %w", err)
	}

	st := mon.Stats()
	return []CouplingRow{
		{Mode: "closely-coupled (inline)", Elapsed: *tightDone},
		{Mode: "loosely-coupled (monitor thread)", Elapsed: *looseDone, DecisionLag: st.MeanLag, Drops: st.Drops},
	}, nil
}
