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
	obj       *core.Object
	successor *cthreads.Thread
	// spin is the spin phase's spec under a policy with no delay-time:
	// an atomior probe of the lock word and the fixed spin pause. Lock
	// copies it per phase to set MaxIters, so the phase allocates
	// nothing.
	spin sim.SpinSpec
}

// NewReconfigurableLock allocates a reconfigurable lock on the given node
// with an initial waiting policy of spin-then-block after initialSpins
// iterations (initialSpins 0 = pure blocking). One that nobody
// reconfigures is Figure 1's combined lock ("spins N times initially
// before blocking").
func NewReconfigurableLock(sys *cthreads.System, node int, name string, costs Costs, initialSpins int64) *ReconfigurableLock {
	l := &ReconfigurableLock{base: newBase(sys, node, name, costs)}
	l.obj = core.NewObject(name)
	l.obj.Attrs.Define(AttrSpinTime, initialSpins, true)
	l.obj.Attrs.Define(AttrDelayTime, 0, true)
	l.obj.Attrs.Define(AttrSleepTime, 1, true)
	l.obj.Attrs.Define(AttrTimeout, 0, true)
	l.obj.Methods.Define(MethodScheduler, 3, SchedFCFS, SchedPriority, SchedHandoff)
	sys.WireObject(l.obj, name)
	l.spin = l.tasSpin(l.flag, l.spinPause)
	return l
}

// Object exposes the underlying adaptive object (attributes, methods,
// monitor, policy) for configuration and inspection.
func (l *ReconfigurableLock) Object() *core.Object { return l.obj }

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
		// The spin phase: spin-time futile iterations of l.spin
		// (unbounded under a pure-spin policy). With delay-time set, each
		// pause adds the per-waiter backoff; that pause reads waiting(),
		// which other threads' Lock and Unlock change without touching
		// the word, so the spec is volatile. Its closure reads this Lock
		// call's policy variables, so a policy re-read after a sleep
		// takes effect on the next phase exactly as the open-coded
		// loop's would.
		spec := l.spin
		spec.MaxIters = sim.SpinUnbounded
		if sleep != 0 {
			spec.MaxIters = max(spin, 0)
		}
		if delay > 0 {
			unit := sim.Time(delay)
			spec.Volatile = true
			spec.PauseCost = func() sim.Time {
				return l.spinPause() + unit*sim.Time(max(l.waiting(), 1))
			}
		}
		iters, ok := t.SpinUntil(&spec)
		l.stats.SpinIters += uint64(iters)
		l.spinners--
		if iters > 0 {
			contended = true
		}
		if ok {
			break
		}
		contended = true

		// Spins exhausted and sleeping is enabled: register and sleep,
		// bounded by the timeout if one is set.
		if l.sleep(t, sim.Time(timeout)) {
			break
		}
		// Woken — by a grant or by timeout — without the lock: re-read
		// the (possibly reconfigured) policy and re-contend from the spin
		// phase.
		spin, delay, sleep, timeout = l.policy()
		l.chargeAccesses(t, 1)
		l.spinners++
	}
	l.acquired(t, start, contended)
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
	l.sampleInline(t, l.obj, SensorWaiting)

	sched, err := l.obj.Methods.Installed(MethodScheduler)
	if err != nil {
		panic(err)
	}
	successor := l.successor
	l.successor = nil
	// Granting a sleeper runs the full release component of the
	// configurable scheduler (dequeue per the installed variant, wakeup)
	// — the slow path that makes the blocking-configured adaptive lock's
	// cycle costlier than the static blocking lock's (Table 7 vs Table 6).
	l.grant(t, sched, successor, l.costs.GrantExtraSteps)
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
