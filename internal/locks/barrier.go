package locks

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
)

// Barrier abstracts over barrier implementations (cthreads.Barrier and
// AdaptiveBarrier): Arrive blocks until all parties have arrived and
// reports whether the caller tripped the barrier.
type Barrier interface {
	Arrive(t *cthreads.Thread) bool
}

// Barrier sensor and attribute names.
const (
	// BarrierAttrSpin is the number of polls an early arrival performs
	// before sleeping.
	BarrierAttrSpin = "spin-time"
	// BarrierSensorSpread senses the arrival spread of each trip: the
	// time from the first arrival to the trip, in microseconds.
	BarrierSensorSpread = "arrival-spread-us"
	// BarrierSensorCoRunnable senses, per trip, the percentage of
	// arrivals that found other runnable threads on their processor —
	// the paper's own criterion for when busy-waiting is wrong
	// ("spinning prevents the progress of other threads", §2).
	BarrierSensorCoRunnable = "co-runnable-pct"
)

// AdaptiveBarrier applies the paper's §7 programme — closely-coupled
// adaptation in other operating system components — to a barrier. Early
// arrivals poll for spin-time rounds before sleeping; the built-in
// monitor senses each trip's arrival spread and the policy moves
// spin-time: balanced phases (small spread) make waiting cheap enough to
// poll through, imbalanced phases (large spread) make sleeping pay.
type AdaptiveBarrier struct {
	sys     *cthreads.System
	name    string
	parties int
	obj     *core.Object

	// PollPause is the virtual time of one poll round.
	PollPause sim.Time

	// Attribution frame labels (precomputed; see internal/profile).
	framePoll string
	frameWait string

	gen          uint64
	arrived      int
	firstArrival sim.Time
	readyHits    int
	sleepers     []*waiter

	trips  uint64
	blocks uint64
	polls  uint64
}

// BarrierReadyPolicy is the default adaptation policy for
// AdaptiveBarrier, keyed on the co-runnable sensor: when arrivals mostly
// own their processors (co-runnable ≤ ThresholdPct), the spin budget
// grows multiplicatively toward MaxSpin — polling wastes nothing; when
// co-located threads could run instead, the budget is cut to GraceSpin —
// a short poll to catch imminent trips, then sleep and free the
// processor.
type BarrierReadyPolicy struct {
	ThresholdPct int64
	GraceSpin    int64
	Step         int64
	MaxSpin      int64
}

// React implements core.Policy (samples from other sensors are ignored).
func (p BarrierReadyPolicy) React(s core.Sample, o *core.Object) []core.Decision {
	if s.Sensor != BarrierSensorCoRunnable {
		return nil
	}
	cur, err := o.Attrs.Get(BarrierAttrSpin)
	if err != nil {
		return nil
	}
	var next int64
	if s.Value <= p.ThresholdPct {
		next = cur*2 + p.Step
		if next > p.MaxSpin {
			next = p.MaxSpin
		}
	} else {
		next = p.GraceSpin
	}
	if next == cur {
		return nil
	}
	return []core.Decision{{Attr: BarrierAttrSpin, Value: next}}
}

// NewAdaptiveBarrier creates an adaptive barrier for the given parties.
// A nil policy installs BarrierSpreadPolicy{Threshold: 50, Step: 4,
// MaxSpin: 400}.
func NewAdaptiveBarrier(sys *cthreads.System, name string, parties int, policy core.Policy) *AdaptiveBarrier {
	if parties < 1 {
		panic(fmt.Sprintf("locks: adaptive barrier %q needs at least 1 party", name))
	}
	b := &AdaptiveBarrier{
		sys:       sys,
		name:      name,
		parties:   parties,
		PollPause: 2 * sim.Microsecond,
		framePoll: "poll:" + name,
		frameWait: "wait:" + name,
	}
	b.obj = core.NewObject(name)
	b.obj.Attrs.Define(BarrierAttrSpin, 32, true)
	b.obj.Monitor.AddSensor(BarrierSensorSpread, 1, func() int64 {
		return int64((b.sys.Now() - b.firstArrival) / sim.Microsecond)
	})
	b.obj.Monitor.AddSensor(BarrierSensorCoRunnable, 1, func() int64 {
		return int64(100 * b.readyHits / b.parties)
	})
	if policy == nil {
		policy = BarrierReadyPolicy{ThresholdPct: 25, GraceSpin: 12, Step: 8, MaxSpin: 600}
	}
	b.obj.SetPolicy(policy)
	sys.WireObject(b.obj, name)
	return b
}

// Object exposes the barrier's adaptive object.
func (b *AdaptiveBarrier) Object() *core.Object { return b.obj }

// pollPause is the spin-spec pause of the barrier's poll loop.
func (b *AdaptiveBarrier) pollPause() sim.Time { return b.PollPause }

// Stats reports trips, sleeps, and poll rounds.
func (b *AdaptiveBarrier) Stats() (trips, blocks, polls uint64) {
	return b.trips, b.blocks, b.polls
}

// Arrive blocks (by polling, then sleeping, per the current spin-time)
// until all parties arrive; the last arrival trips the barrier, feeds the
// monitor, and wakes the sleepers.
func (b *AdaptiveBarrier) Arrive(t *cthreads.Thread) bool {
	gen := b.gen
	if b.arrived == 0 {
		b.firstArrival = t.Now()
	}
	b.arrived++
	if t.Proc().QueueLen() > 0 {
		b.readyHits++
	}
	if b.arrived == b.parties {
		// Trip: sense this round (feeding the policy inline), then
		// release everyone.
		b.trips++
		b.obj.Monitor.Probe(BarrierSensorSpread)
		b.obj.Monitor.Probe(BarrierSensorCoRunnable)
		t.Compute(8) // monitor collection + policy
		b.arrived = 0
		b.readyHits = 0
		b.gen++
		ws := b.sleepers
		b.sleepers = nil
		for _, w := range ws {
			w.granted = true
			t.Wake(w.t)
		}
		return true
	}

	// Early arrival: poll per the current spin budget. As a spin spec
	// the loop is an uncharged generation probe with one PollPause per
	// futile poll, bounded by the budget; the engine batches the polls
	// between trips.
	budget := b.obj.Attrs.MustGet(BarrierAttrSpin)
	if budget < 0 {
		budget = 0
	}
	spec := sim.SpinSpec{
		Probe:     func() bool { return b.gen != gen },
		PauseCost: b.pollPause,
		MaxIters:  budget,
		Label:     b.framePoll,
	}
	polls, tripped := t.SpinUntil(&spec)
	b.polls += uint64(polls)
	if tripped {
		return false
	}
	// Budget exhausted: sleep until the trip.
	w := &waiter{t: t, enqueued: t.Now()}
	b.sleepers = append(b.sleepers, w)
	b.blocks++
	if p := t.Prof(); p != nil {
		p.Push(t.Now(), b.frameWait)
	}
	for b.gen == gen {
		if !w.granted {
			t.Block()
		} else {
			break
		}
	}
	if p := t.Prof(); p != nil {
		p.Pop(t.Now(), b.frameWait)
	}
	return false
}
