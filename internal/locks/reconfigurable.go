package locks

import (
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// Attribute names of the reconfigurable/adaptive lock's waiting policy
// (Table "Lock Parameters", §5.1).
const (
	// AttrSpinTime is the number of initial spins before a requester
	// considers sleeping. 0 with sleeping enabled = pure blocking.
	AttrSpinTime = "spin-time"
	// AttrDelayTime is a per-iteration backoff delay in nanoseconds,
	// multiplied by the number of waiting threads (0 = no backoff).
	AttrDelayTime = "delay-time"
	// AttrSleepTime enables sleeping once spins are exhausted (0 = pure
	// spin: the requester never sleeps).
	AttrSleepTime = "sleep-time"
	// AttrTimeout bounds one sleep in nanoseconds (0 = sleep until
	// granted); a timed-out waiter re-reads the policy and retries —
	// the "conditional sleep/spin" row of the attribute table.
	AttrTimeout = "timeout"
)

// MethodScheduler is the reconfigurable scheduler method; its three
// subcomponents are registration, acquisition, and release (§5.1).
const MethodScheduler = "scheduler"

// SensorWaiting is the adaptive lock's sensor: the number of threads
// currently waiting (spinning or sleeping).
const SensorWaiting = "no-of-waiting-threads"

// Extra instruction-step charges for explicit reconfiguration operations
// (Table 8 calibration; see Costs for the philosophy).
const (
	configureWaitingSteps = 34
	configureSchedSteps   = 38
	acquireAttrSteps      = 118
)

// ReconfigurableLock is the lock of [MS93] §3: its waiting policy is a set
// of mutable attributes (spin-time, delay-time, sleep-time, timeout) and
// its scheduler is a reconfigurable method with FCFS, priority, and
// handoff variants. It has no monitor and no policy of its own; an
// external agent (or embedding AdaptiveLock) reconfigures it.
type ReconfigurableLock struct {
	base
	q         waitQueue
	obj       *core.Object
	successor *cthreads.Thread
	// frameAdapt attributes the inline monitor-sample/adaptation work
	// performed in Unlock ("adapt:name").
	frameAdapt string
}

// NewReconfigurableLock allocates a reconfigurable lock on the given node
// with an initial waiting policy of spin-then-block after initialSpins
// iterations (initialSpins 0 = pure blocking). One that nobody
// reconfigures is Figure 1's combined lock ("spins N times initially
// before blocking").
func NewReconfigurableLock(sys *cthreads.System, node int, name string, costs Costs, initialSpins int64) *ReconfigurableLock {
	l := &ReconfigurableLock{base: newBase(sys, node, name, costs)}
	l.frameAdapt = "adapt:" + name
	l.obj = core.NewObject(name)
	l.obj.Attrs.Define(AttrSpinTime, initialSpins, true)
	l.obj.Attrs.Define(AttrDelayTime, 0, true)
	l.obj.Attrs.Define(AttrSleepTime, 1, true)
	l.obj.Attrs.Define(AttrTimeout, 0, true)
	l.obj.Methods.Define(MethodScheduler, 3, SchedFCFS, SchedPriority, SchedHandoff)
	wireObservability(sys, l.obj, name)
	return l
}

// wireObservability routes an adaptive object's feedback loop into the
// system tracer and the adaptation decision ledger. Kept as a thin
// package-local alias for cthreads.System.WireObject, which monitors and
// other core.Object embedders share.
func wireObservability(sys *cthreads.System, obj *core.Object, name string) {
	sys.WireObject(obj, name)
}

// Object exposes the underlying adaptive object (attributes, methods,
// monitor, policy) for configuration and inspection.
func (l *ReconfigurableLock) Object() *core.Object { return l.obj }

// waiting reports the number of threads currently waiting for the lock.
func (l *ReconfigurableLock) waiting() int { return l.spinners + l.q.Len() }

// Waiting reports the current waiter count (for sensors and tests).
func (l *ReconfigurableLock) Waiting() int { return l.waiting() }

// SetSuccessor designates the thread the handoff scheduler should grant
// the lock to at the next release. Only meaningful while the caller owns
// the lock and the handoff variant is installed.
func (l *ReconfigurableLock) SetSuccessor(t *cthreads.Thread) { l.successor = t }

// policy reads the current waiting policy. The cost of reading the
// attributes from the lock's home node is charged separately at the call
// sites (one access per attribute).
func (l *ReconfigurableLock) policy() (spin, delay, sleep, timeout int64) {
	return l.obj.Attrs.MustGet(AttrSpinTime),
		l.obj.Attrs.MustGet(AttrDelayTime),
		l.obj.Attrs.MustGet(AttrSleepTime),
		l.obj.Attrs.MustGet(AttrTimeout)
}

// Lock acquires the lock according to the current waiting policy: spin up
// to spin-time iterations (with delay-time backoff), then — if sleeping is
// enabled — register and sleep, bounded by timeout if one is set. A
// requester under a pure-spin policy (sleep-time 0) never sleeps.
func (l *ReconfigurableLock) Lock(t *cthreads.Thread) {
	start := t.Now()
	t.Compute(l.costs.SpinLockSteps)
	l.observe(t, l.waiting())
	// The four waiting-policy attributes are packed into one word of the
	// lock's state, so reading the whole policy costs one reference.
	spin, delay, sleep, timeout := l.policy()
	l.chargeAccesses(t, 1)
	contended := false
	l.spinners++
	for {
		// The spin phase as a spec: an atomior probe of the lock word,
		// spin-time futile iterations (unbounded under a pure-spin
		// policy), each pausing for the fixed spin pause plus the
		// per-waiter backoff when delay-time is set. The pause closure
		// reads the policy variables of this Lock call, so a policy
		// re-read after a sleep takes effect on the next phase exactly as
		// the open-coded loop's would.
		maxIters := sim.SpinUnbounded
		if sleep != 0 {
			maxIters = spin
			if maxIters < 0 {
				maxIters = 0
			}
		}
		spec := sim.SpinSpec{
			ProbeCell:   l.flag,
			ProbeAtomic: true,
			Probe:       l.tasProbe,
			PauseCost: func() sim.Time {
				pause := l.sys.Machine().InstrCost(l.costs.SpinPauseSteps)
				if delay > 0 {
					waiting := l.waiting()
					if waiting < 1 {
						waiting = 1
					}
					pause += sim.Time(delay) * sim.Time(waiting)
				}
				return pause
			},
			MaxIters: maxIters,
			Label:    l.frameSpin,
		}
		iters, ok := t.SpinUntil(&spec)
		l.stats.SpinIters += uint64(iters)
		if iters > 0 {
			contended = true
		}
		if ok {
			l.spinners--
			l.acquired(t, start, contended)
			return
		}
		contended = true

		// Spins exhausted and sleeping is enabled: register and sleep.
		l.spinners--
		w := l.q.enqueue(t)
		l.chargeAccesses(t, l.costs.QueueOpAccesses)
		if l.flag.AtomicOr(t, 1) == 0 {
			// Released while we registered.
			l.q.remove(w)
			l.chargeAccesses(t, l.costs.QueueOpAccesses)
			l.acquired(t, start, true)
			return
		}
		l.stats.Blocks++
		l.traceBlocked(t)
		if timeout > 0 {
			l.waitStart(t)
			timedOut := t.BlockTimeout(sim.Time(timeout))
			l.waitEnd(t)
			if timedOut && !w.granted {
				// Conditional sleep expired without a grant: leave the
				// queue before re-contending.
				l.q.remove(w)
				l.chargeAccesses(t, l.costs.QueueOpAccesses)
			}
		} else if !w.granted {
			l.waitStart(t)
			t.Block()
			l.waitEnd(t)
		}
		// Woken — by a grant (the releaser freed the word with this
		// thread as the scheduler's choice) or by timeout. Either way the
		// lock is taken by test-and-set, so a running thread may have
		// barged in the wakeup window; re-read the (possibly
		// reconfigured) policy and re-contend from the spin phase.
		t.Compute(l.costs.PostWakeSteps)
		spin, delay, sleep, timeout = l.policy()
		l.chargeAccesses(t, 1)
		l.spinners++
	}
}

// Unlock releases the lock: probe the monitor (a no-op unless an adaptive
// embedding registered sensors), then let the installed scheduler's
// release component grant the lock to a sleeping waiter, or clear the word
// for spinners.
func (l *ReconfigurableLock) Unlock(t *cthreads.Thread) {
	l.checkOwner(t, "Unlock")
	l.unlockStart(t)
	t.Compute(l.costs.AdaptUnlockSteps)
	l.chargeAccesses(t, 1) // inspect the queue head

	if p := t.Prof(); p != nil {
		p.Push(t.Now(), l.frameAdapt)
	}
	if _, ok := l.obj.Monitor.Probe(SensorWaiting); ok {
		// The closely-coupled customized monitor: collect the sample and
		// run the adaptation policy inline, in the unlocking thread.
		t.Compute(l.costs.MonitorSampleSteps)
		l.chargeAccesses(t, 2) // read the sensed state, write the attribute
	}
	if p := t.Prof(); p != nil {
		p.Pop(t.Now(), l.frameAdapt)
	}

	sched, err := l.obj.Methods.Installed(MethodScheduler)
	if err != nil {
		panic(err)
	}
	l.owner = nil
	l.traceRelease(t)
	successor := l.successor
	l.successor = nil
	// Free the word FIRST, and only then consult the queue: a requester
	// that registered and re-tested while our store was in flight is
	// guaranteed to be visible to the pick below, so no sleeper is ever
	// stranded. Freeing before waking also means a spinning requester may
	// barge during the wakeup window — which is exactly what lets a
	// combined lock's spin phase catch the lock at all.
	l.flag.Store(t, 0)
	if w := l.q.pick(sched, successor); w != nil {
		// Granting a sleeper runs the full release component of the
		// configurable scheduler (dequeue per the installed variant,
		// wakeup) — the slow path that makes the blocking-configured
		// adaptive lock's cycle costlier than the static blocking lock's
		// (Table 7 vs Table 6).
		t.Compute(l.costs.GrantExtraSteps)
		w.granted = true
		t.Wake(w.t)
	}
	l.unlockEnd(t)
}

// ConfigureBy applies a reconfiguration decision on behalf of the calling
// thread, charging the operation's cost: a waiting-policy change is one
// read plus one write to the lock's node; a scheduler change writes the
// three subcomponents plus a set and a reset of the draining flag (§5.2,
// Table 8).
func (l *ReconfigurableLock) ConfigureBy(t *cthreads.Thread, d core.Decision, by core.OwnerID) error {
	if d.Attr != "" {
		t.Compute(configureWaitingSteps)
		l.chargeAccesses(t, 2)
	}
	if d.Method != "" {
		t.Compute(configureSchedSteps)
		l.chargeAccesses(t, 5)
	}
	return l.obj.Apply(d, by)
}

// AcquireAttrBy takes explicit ownership of an attribute for an external
// agent, charging the test-and-set-like acquisition cost (Table 8).
func (l *ReconfigurableLock) AcquireAttrBy(t *cthreads.Thread, attr string, by core.OwnerID) error {
	t.Compute(acquireAttrSteps)
	t.Advance(l.sys.Machine().AccessCost(t.Node(), l.node) + l.sys.Machine().Config().AtomicExtra)
	return l.obj.Attrs.Acquire(attr, by)
}

// ReleaseAttrBy releases explicit ownership of an attribute.
func (l *ReconfigurableLock) ReleaseAttrBy(t *cthreads.Thread, attr string, by core.OwnerID) error {
	l.chargeAccesses(t, 2)
	return l.obj.Attrs.Release(attr, by)
}

// GeneralMonitorSample routes one state variable through the
// general-purpose thread monitor path the paper rejected as too loosely
// coupled: the sample is handed to a monitor thread on another node. Used
// only to reproduce Table 8's monitor row.
func (l *ReconfigurableLock) GeneralMonitorSample(t *cthreads.Thread) int64 {
	t.Compute(l.costs.GeneralMonitorSteps)
	l.chargeAccesses(t, 1)
	return int64(l.waiting())
}

// SetupPolicy sets the waiting-policy attributes without charging any
// simulated time. For experiment setup only; simulated code must use
// ConfigureBy.
func (l *ReconfigurableLock) SetupPolicy(spin, delay, sleep, timeout int64) {
	for _, kv := range []struct {
		name string
		v    int64
	}{
		{AttrSpinTime, spin},
		{AttrDelayTime, delay},
		{AttrSleepTime, sleep},
		{AttrTimeout, timeout},
	} {
		if err := l.obj.Attrs.Set(kv.name, kv.v, core.OwnerSelf); err != nil {
			panic(err)
		}
	}
}

// NewPureSpinConfigured builds a reconfigurable lock pinned to the
// pure-spin configuration (sleep disabled), for Table 7.
func NewPureSpinConfigured(sys *cthreads.System, node int, name string, costs Costs) *ReconfigurableLock {
	l := NewReconfigurableLock(sys, node, name, costs, 0)
	l.SetupPolicy(0, 0, 0, 0)
	return l
}

// NewPureBlockingConfigured builds a reconfigurable lock pinned to the
// pure-blocking configuration (zero spins), for Table 7.
func NewPureBlockingConfigured(sys *cthreads.System, node int, name string, costs Costs) *ReconfigurableLock {
	l := NewReconfigurableLock(sys, node, name, costs, 0)
	l.SetupPolicy(0, 0, 1, 0)
	return l
}
