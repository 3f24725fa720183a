package cthreads

import (
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Processor is one node of the simulated machine running threads from a
// FIFO ready queue. Processor i executes on (and is local to) memory node i.
type Processor struct {
	sys *System
	id  int

	ready     []*Thread
	current   *Thread
	switching bool // a dispatch event is already scheduled
	// dispatchFn is the method value p.dispatch, bound once at creation so
	// every scheduled context switch reuses it.
	dispatchFn func()

	busy     sim.Time // accumulated Advance time of threads on this processor
	switches int
}

// ID returns the processor (= memory node) number.
func (p *Processor) ID() int { return p.id }

// QueueLen reports how many threads are on the ready queue.
func (p *Processor) QueueLen() int { return len(p.ready) }

// Busy reports total computation time charged on this processor.
func (p *Processor) Busy() sim.Time {
	p.sys.eng.SyncSpins()
	return p.busy
}

// Switches reports how many thread dispatches this processor performed.
func (p *Processor) Switches() int { return p.switches }

// enqueue appends t to the ready queue.
func (p *Processor) enqueue(t *Thread) {
	t.state = StateReady
	p.ready = append(p.ready, t)
	t.prof.SetBase(p.sys.eng.Now(), profile.BaseQueued)
	p.sys.traceThread(trace.KindThreadReady, t, "", 0)
}

// maybeSchedule arranges a dispatch after the context-switch cost if the
// processor is idle, has runnable threads, and no dispatch is pending.
func (p *Processor) maybeSchedule() {
	if p.current != nil || p.switching || len(p.ready) == 0 {
		return
	}
	p.switching = true
	p.sys.eng.After(p.sys.cfg.ContextSwitch, p.dispatchFn)
}

// dispatch installs the next ready thread as current and transfers control
// to it. Runs in engine-event context.
func (p *Processor) dispatch() {
	p.switching = false
	if p.current != nil || len(p.ready) == 0 {
		return
	}
	t := p.ready[0]
	copy(p.ready, p.ready[1:])
	p.ready = p.ready[:len(p.ready)-1]
	p.current = t
	p.switches++
	p.sys.stats.ContextSwitches++
	if t.state == StateBlocked || t.state == StateDone {
		panic("cthreads: dispatching thread in state " + t.state.String())
	}
	wasBlocked := t.blockedAt >= 0
	if wasBlocked {
		t.blockedTotal += p.sys.eng.Now() - t.blockedAt
		t.blockedAt = -1
	}
	t.state = StateRunning
	t.sliceLeft = p.sys.cfg.Quantum
	t.prof.SetBase(p.sys.eng.Now(), profile.BaseRunning)
	p.sys.traceThread(trace.KindThreadRun, t, "", 0)
	if !t.started {
		t.started = true
		t.coro.Start(0)
		return
	}
	t.coro.Unpark(0)
}

// release gives up the processor (current must be the caller's thread) and
// schedules the next dispatch.
func (p *Processor) release() {
	p.current = nil
	p.maybeSchedule()
}
