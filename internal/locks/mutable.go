package locks

import (
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// Attribute and sensor names of the mutable lock's predictor.
const (
	// AttrHoldEstimate is the rolling estimate of the lock's hold time in
	// nanoseconds of virtual time, maintained by the feedback loop (EWMA
	// over observed holds) after every release. It is an ordinary mutable
	// attribute: external agents may read it, override it, or take
	// ownership of it like any other, and every update flows through
	// Object.Apply, so the estimate's history is ledger-visible.
	AttrHoldEstimate = "hold-estimate"
	// SensorHoldTime senses the duration of the hold that just ended, in
	// nanoseconds of virtual time, probed once per unlock.
	SensorHoldTime = "hold-time"
)

// EWMA weights of the hold-time estimator: avg ← (1·v + 3·avg) / 4. A
// quarter-weight on the newest hold converges on a step change in ~15
// holds while damping one-off outliers.
const (
	DefaultHoldEWMAAlpha = 1
	DefaultHoldEWMADen   = 4
)

// spinBlockFactor bounds the spin-then-block band: a predicted wait of up
// to spinBlockFactor× the block/unblock cost hedges with a bounded spin
// before sleeping (the classic 2-competitive window); beyond it the waiter
// blocks immediately.
const spinBlockFactor = 2

// maxSpinRounds bounds how many consecutive times a waiter may re-decide
// "spin" after a predicted deadline expired without an acquisition. Missed
// deadlines mean the estimate is stale (e.g. the owner was preempted
// mid-hold); after maxSpinRounds misses the waiter blocks regardless, so
// total futile spinning per acquisition stays bounded even under
// adversarial hold times.
const maxSpinRounds = 3

// Waiting-mode classes of one arrival, for PredictionStats.
const (
	decCold = iota
	decSpin
	decSpinBlock
	decBlock
)

// PredictionStats reports how a mutable lock's contended arrivals decided
// and how well the predicted waits matched the realized ones.
type PredictionStats struct {
	// Spin, SpinBlock, and Block count contended arrivals routed to each
	// waiting mode by the predictor; Cold counts contended arrivals that
	// found no estimate yet and fell back to a fixed spin-then-block.
	Spin, SpinBlock, Block, Cold uint64
	// Samples counts predicted contended arrivals; PredictedSum, ActualSum,
	// and AbsErrSum accumulate their predicted waits, realized waits, and
	// absolute prediction errors (all virtual time).
	Samples                            uint64
	PredictedSum, ActualSum, AbsErrSum sim.Time
}

// MutableLock picks spin vs sleep per waiter, per acquisition, from a
// prediction ("Mutable Locks", PAPERS.md) instead of reacting to observed
// contention after the fact like AdaptiveLock. The lock's monitor senses
// each hold's duration at release; the feedback loop smooths the holds
// into the hold-estimate attribute; each arriving waiter predicts its
// remaining wait from the estimate, the current hold's age, and the queue
// ahead of it, and compares the prediction against the block/unblock cost:
//
//	predicted ≤ cost          spin to the predicted deadline, re-decide
//	cost < predicted ≤ 2·cost spin one cost's worth, then block
//	predicted > 2·cost        block immediately
//
// All spinning goes through SpinUntil, so the engine's batched-spin
// emulation applies; every estimate update is an Object.Apply and lands in
// the adaptation ledger. Prediction reads only virtual-time quantities
// (cell state, t.Now(), the estimate attribute), so decisions — and
// therefore all simulated metrics — are deterministic and engine-mode
// independent.
type MutableLock struct {
	base
	obj *core.Object

	// heldSince is the acquisition instant of the current hold. Unlike
	// base.holdFrom it is maintained with or without a profiler: arriving
	// waiters read it to age the estimate.
	heldSince sim.Time
	// lastHold is the duration of the most recently completed hold (ns),
	// read by the hold-time sensor.
	lastHold int64
	// estValid flips true at the first feedback sample; until then
	// arrivals take the cold-start path.
	estValid bool
	pred     PredictionStats
	// spin is the spin phase's spec: an atomior probe of the lock word
	// and the fixed spin pause. Lock copies it per phase to set
	// MaxIters, so the phase allocates nothing.
	spin sim.SpinSpec
	// decision is holdEstimatePolicy's reply: the feedback loop applies
	// a policy's decisions before it samples again, so one reused slot
	// keeps the release path allocation-free.
	decision [1]core.Decision
}

// NewMutableLock allocates a mutable (predictive spin-vs-sleep) lock on
// the given node.
func NewMutableLock(sys *cthreads.System, node int, name string, costs Costs) *MutableLock {
	l := &MutableLock{base: newBase(sys, node, name, costs)}
	l.obj = core.NewObject(name)
	l.obj.Attrs.Define(AttrHoldEstimate, 0, true)
	// The customized lock monitor senses every hold's duration at
	// release; the policy smooths it and writes the estimate attribute
	// through the ordinary reconfiguration path.
	l.obj.Monitor.AddSensor(SensorHoldTime, 1, func() int64 { return l.lastHold })
	l.obj.SetPolicy(&core.EWMA{
		Alpha: DefaultHoldEWMAAlpha,
		Den:   DefaultHoldEWMADen,
		Inner: holdEstimatePolicy{l},
	})
	sys.WireObject(l.obj, name)
	l.spin = l.tasSpin(l.flag, l.spinPause)
	return l
}

// holdEstimatePolicy is the inner policy behind the EWMA smoother: it
// publishes each smoothed hold time as the hold-estimate attribute
// (skipping no-op writes so the ledger records changes, not repetition).
type holdEstimatePolicy struct{ l *MutableLock }

// React implements core.Policy.
func (p holdEstimatePolicy) React(s core.Sample, o *core.Object) []core.Decision {
	p.l.estValid = true
	if o.Attrs.MustGet(AttrHoldEstimate) == s.Value {
		return nil
	}
	p.l.decision[0] = core.Decision{Attr: AttrHoldEstimate, Value: s.Value}
	return p.l.decision[:]
}

// Object exposes the underlying adaptive object (the estimate attribute,
// the hold-time sensor, the smoothing policy) for inspection and external
// reconfiguration.
func (l *MutableLock) Object() *core.Object { return l.obj }

// Prediction returns the accumulated prediction statistics.
func (l *MutableLock) Prediction() PredictionStats { return l.pred }

// Estimate returns the current hold-time estimate and whether any hold has
// been observed yet.
func (l *MutableLock) Estimate() (sim.Time, bool) {
	return sim.Time(l.obj.Attrs.MustGet(AttrHoldEstimate)), l.estValid
}

// Waiting reports the current waiter count (for sensors and tests).
func (l *MutableLock) Waiting() int { return l.waiting() }

// blockCost is the virtual-time price of sleeping instead of spinning:
// the context switch out, the wakeup, the post-wake completion steps, and
// the queue insert plus remove references. Everything is derived from the
// machine configuration and the cost table, never from wall time.
func (l *MutableLock) blockCost(t *cthreads.Thread) sim.Time {
	m := l.sys.Machine()
	cfg := m.Config()
	return cfg.ContextSwitch + cfg.Wakeup +
		m.InstrCost(l.costs.PostWakeSteps) +
		sim.Time(2*l.costs.QueueOpAccesses)*m.AccessCost(t.Node(), l.node)
}

// predictWait predicts this arrival's wait: the current hold's estimated
// remainder (zero once the hold is overdue — release is then imminent)
// plus one full estimated hold per waiter already ahead.
func (l *MutableLock) predictWait(t *cthreads.Thread, est sim.Time) sim.Time {
	var remaining sim.Time
	if l.owner != nil {
		if held := t.Now() - l.heldSince; held < est {
			remaining = est - held
		}
	}
	return remaining + sim.Time(l.waiting())*est
}

// spinIterCost is the virtual time one futile spin iteration costs: the
// atomic probe of the lock word plus the inter-probe pause.
func (l *MutableLock) spinIterCost(t *cthreads.Thread) sim.Time {
	m := l.sys.Machine()
	return m.AccessCost(t.Node(), l.node) + m.Config().AtomicExtra +
		m.InstrCost(l.costs.SpinPauseSteps)
}

// Lock acquires the lock, choosing this waiter's mode from the predicted
// wait (see the type comment).
func (l *MutableLock) Lock(t *cthreads.Thread) {
	start := t.Now()
	t.Compute(l.costs.SpinLockSteps)
	l.observe(t, l.waiting())
	// The estimate is one word of the lock's state: one reference reads it.
	l.chargeAccesses(t, 1)
	contended := l.owner != nil || l.waiting() > 0
	firstPred := sim.Time(-1)
	classed := false
	spinRounds := 0
	for {
		blockCost := l.blockCost(t)
		dec := decCold
		var pred sim.Time
		if l.estValid {
			pred = l.predictWait(t, sim.Time(l.obj.Attrs.MustGet(AttrHoldEstimate)))
			switch {
			case pred <= blockCost:
				dec = decSpin
			case pred <= spinBlockFactor*blockCost:
				dec = decSpinBlock
			default:
				dec = decBlock
			}
		}
		if !classed && contended {
			classed = true
			switch dec {
			case decCold:
				l.pred.Cold++
			case decSpin:
				l.pred.Spin++
			case decSpinBlock:
				l.pred.SpinBlock++
			case decBlock:
				l.pred.Block++
			}
			if dec != decCold {
				firstPred = pred
			}
		}
		if dec == decSpin && spinRounds >= maxSpinRounds {
			// The estimate keeps under-predicting (stale after a
			// preemption or a phase change): stop trusting it.
			dec = decBlock
		}
		var maxIters int64
		switch dec {
		case decCold:
			maxIters = DefaultInitialSpins
		case decSpin:
			// Spin to the predicted deadline plus one block cost of
			// slack: the estimate can't see the owner's release-path
			// overhead, and giving up in that window would pay the full
			// block cost to avoid a near-certain imminent grant. Total
			// spin stays within the 2-competitive envelope.
			maxIters = int64((pred + blockCost) / l.spinIterCost(t))
		case decSpinBlock:
			maxIters = int64(blockCost/l.spinIterCost(t)) + 1
		case decBlock:
			maxIters = 0
		}
		if maxIters > 0 {
			spec := l.spin
			spec.MaxIters = maxIters
			l.spinners++
			iters, ok := t.SpinUntil(&spec)
			l.spinners--
			l.stats.SpinIters += uint64(iters)
			if iters > 0 {
				contended = true
			}
			if ok {
				l.finishAcquire(t, start, contended, firstPred)
				return
			}
			contended = true
			if dec == decSpin {
				// Deadline missed: re-predict from fresh state.
				spinRounds++
				continue
			}
		}
		// Sleep, then re-predict and re-contend on wakeup.
		if l.sleep(t, 0) {
			l.finishAcquire(t, start, true, firstPred)
			return
		}
		contended = true
		l.chargeAccesses(t, 1)
		spinRounds = 0
	}
}

// finishAcquire completes bookkeeping: the base accounting, the hold
// timestamp the predictor ages against, and the predicted-vs-actual
// calibration record when this arrival carried a prediction.
func (l *MutableLock) finishAcquire(t *cthreads.Thread, start sim.Time, contended bool, firstPred sim.Time) {
	l.acquired(t, start, contended)
	l.heldSince = t.Now()
	if firstPred >= 0 {
		actual := t.Now() - start
		l.pred.Samples++
		l.pred.PredictedSum += firstPred
		l.pred.ActualSum += actual
		err := actual - firstPred
		if err < 0 {
			err = -err
		}
		l.pred.AbsErrSum += err
	}
}

// Unlock releases the lock: it feeds the completed hold to the estimator
// (the monitor probe, collected inline by the unlocking thread), frees the
// word, and wakes the FCFS head of the sleep queue if any.
func (l *MutableLock) Unlock(t *cthreads.Thread) {
	l.checkOwner(t, "Unlock")
	l.unlockStart(t)
	t.Compute(l.costs.AdaptUnlockSteps)
	l.chargeAccesses(t, 1) // inspect the queue head
	l.lastHold = int64(t.Now() - l.heldSince)
	l.sampleInline(t, l.obj, SensorHoldTime)
	// Spinners may barge while the grant wakes a sleeper — which is what
	// makes a predicted spin pay off.
	l.grant(t, SchedFCFS, nil, l.costs.GrantExtraSteps)
	l.unlockEnd(t)
}
