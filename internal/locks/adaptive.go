package locks

import (
	"repro/internal/core"
	"repro/internal/cthreads"
)

// AdaptiveLock is the paper's contribution: a ReconfigurableLock with a
// built-in customized lock monitor (the number of waiting threads, sampled
// once during every other unlock) and a user-provided adaptation policy
// that retunes the waiting policy from that feedback. With the default
// SimpleAdapt policy it configures uncontended locks down to low-latency
// spin locks and overloaded locks up to pure blocking, tracking the
// application's locking pattern as it shifts (§4).
type AdaptiveLock struct {
	ReconfigurableLock
}

// DefaultInitialSpins is the spin-time an adaptive lock starts from before
// any feedback arrives.
const DefaultInitialSpins = 10

// NewAdaptiveLock allocates an adaptive lock on the given node. A nil
// policy installs core.DefaultSimpleAdapt.
func NewAdaptiveLock(sys *cthreads.System, node int, name string, policy core.Policy) *AdaptiveLock {
	l := &AdaptiveLock{
		ReconfigurableLock: *NewReconfigurableLock(sys, node, name, DefaultInitialSpins),
	}
	// The customized lock monitor: sense no-of-waiting-threads on every
	// other unlock (§4), collected inline by the unlocking thread so the
	// feedback loop is closely coupled.
	l.obj.Monitor.AddSensor(SensorWaiting, 2, func() int64 { return int64(l.waiting()) })
	if policy == nil {
		policy = core.DefaultSimpleAdapt(AttrSpinTime)
	}
	l.obj.SetPolicy(policy)
	return l
}
