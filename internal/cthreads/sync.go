package cthreads

import (
	"fmt"

	"repro/internal/sim"
)

// This file provides the Cthreads barrier, a substrate primitive built
// directly on Block/Wake rather than on the lock family, which lives in
// internal/locks. The parallel SOR solver (internal/sor) synchronizes its
// sweeps with it.

// Barrier blocks parties threads until all have arrived, then releases
// them together; it is reusable across generations.
type Barrier struct {
	sys     *System
	name    string
	parties int
	arrived int
	gen     uint64
	waiters []*Thread

	// SpinWait optionally makes arrivals spin (poll) instead of sleeping;
	// threads then poll every SpinWait of virtual time.
	SpinWait sim.Time
}

// NewBarrier creates a barrier for the given number of parties.
func (s *System) NewBarrier(name string, parties int) *Barrier {
	if parties < 1 {
		panic(fmt.Sprintf("cthreads: barrier %q needs at least 1 party", name))
	}
	return &Barrier{sys: s, name: name, parties: parties}
}

// Arrive blocks until all parties have arrived. The last arrival wakes
// the others (paying the wakeup cost for each) and returns true.
func (b *Barrier) Arrive(t *Thread) (last bool) {
	t.mustBeRunning("Barrier.Arrive")
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		ws := b.waiters
		b.waiters = nil
		for _, w := range ws {
			t.Wake(w)
		}
		return true
	}
	if b.SpinWait > 0 {
		// The poll loop as a spin spec: an uncharged generation check,
		// one SpinWait of computation per futile poll. Batched, the
		// engine fast-forwards the polls between genuine trips.
		spec := sim.SpinSpec{
			Probe:     func() bool { return b.gen != gen },
			PauseCost: func() sim.Time { return b.SpinWait },
			MaxIters:  sim.SpinUnbounded,
		}
		t.SpinUntil(&spec)
		return false
	}
	b.waiters = append(b.waiters, t)
	for b.gen == gen {
		t.Block()
	}
	return false
}

// Generation reports how many times the barrier has tripped.
func (b *Barrier) Generation() uint64 { return b.gen }
