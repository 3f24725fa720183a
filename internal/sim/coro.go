package sim

import "fmt"

// Coro is a simulated execution context: a host coroutine that runs real
// Go code but advances only when the engine dispatches it, and returns
// control whenever it sleeps or parks. Exactly one Coro (or the engine
// loop) is active at any moment, so code inside a Coro may freely read and
// write simulated state without synchronization.
//
// Coros are created with Engine.Spawn and begin execution when first
// dispatched (Coro.Start schedules that).
type Coro struct {
	eng  *Engine
	name string
	id   uint64
	fn   func(c *Coro)
	// w is the worker running the body, bound at the first dispatch and
	// returned to the idle pool by the dispatch that sees the body finish.
	w *worker

	started bool
	done    bool
	killed  bool
	parked  bool
	// spinning marks a suspended SpinUntil emulation: the coro's events
	// drive spin instead of resuming the body (see Engine.fire and
	// Coro.SpinUntil). spin is allocated at the first suspension and
	// reused by every later one.
	spinning bool
	spin     *spinState
}

// Spawn creates a Coro that will run fn. The coro does not execute until
// Start (or a manual Unpark) schedules it. The name appears in error
// messages.
func (e *Engine) Spawn(name string, fn func(c *Coro)) *Coro {
	e.coroSeq++
	c := &Coro{eng: e, name: name, id: e.coroSeq, fn: fn}
	e.live[c] = struct{}{}
	return c
}

// run executes the coro's body on its worker. A panic is recorded as the
// engine's failure; errKilled, raised by a kill before the first dispatch
// or at a yield, just unwinds. runtime.Goexit is not recovered: it ends
// the worker and iter.Pull re-raises it in the engine's caller.
func (c *Coro) run() {
	e := c.eng
	defer func() {
		c.done = true
		delete(e.live, c)
		if r := recover(); r != nil && r != errKilled {
			e.fail(fmt.Errorf("sim: coro %q panicked: %v", c.name, r))
		}
	}()
	if c.killed {
		panic(errKilled)
	}
	c.fn(c)
}

// Start schedules the coro to begin execution after delay d.
func (c *Coro) Start(d Time) {
	if c.started {
		panic(fmt.Sprintf("sim: coro %q started twice", c.name))
	}
	c.started = true
	c.eng.afterCoro(d, c)
}

// Name returns the coro's diagnostic name.
func (c *Coro) Name() string { return c.name }

// ID returns the coro's spawn-order number (1 for the first Spawn on its
// engine). Shutdown unwinds live coros in this order.
func (c *Coro) ID() uint64 { return c.id }

// Done reports whether the coro's function has returned.
func (c *Coro) Done() bool { return c.done }

// Engine returns the engine this coro belongs to.
func (c *Coro) Engine() *Engine { return c.eng }

// Now reports the current virtual time.
func (c *Coro) Now() Time { return c.eng.now }

// yieldToEngine switches back to the engine and returns when redispatched.
// Must only be called from inside the coro's own body. It and
// Engine.dispatch are the only two switch points.
func (c *Coro) yieldToEngine() {
	c.w.yield(struct{}{})
	if c.killed {
		panic(errKilled)
	}
}

// Sleep advances the coro's virtual time by d: other events run in the
// interim, exactly as if the coro had scheduled its own wakeup and yielded.
// Negative durations are treated as zero (same-time events still run
// first, in scheduling order).
//
// Fast path: when the wakeup at now+d is strictly earlier than every
// pending event, the engine invariant (one active context, completion-time
// dispatch order) guarantees this coro would be dispatched next with
// nothing running in between — so the engine advances now and seq in place
// (a "virtual dispatch") and the coro keeps running, skipping the heap
// push/pop and the coroutine switch there and back. Equal wakeup times
// must take the slow path: an already-queued event at the same time holds
// a smaller seq and fires first. A killed coro must reach yieldToEngine
// to unwind, and a sharded window bounds inline advancement.
func (c *Coro) Sleep(d Time) {
	e := c.eng
	if d < 0 {
		d = 0
	}
	if !e.noInline && !c.killed {
		if when := e.now + d; e.canInline(when) {
			e.advanceInline(when)
			return
		}
	}
	e.afterCoro(d, c)
	c.yieldToEngine()
}

// Park suspends the coro indefinitely; it resumes only when another
// activity calls Unpark.
func (c *Coro) Park() {
	c.parked = true
	c.yieldToEngine()
}

// Unpark schedules a parked coro to resume after delay d. Calling Unpark on
// a coro that is not parked is a programming error in the layer above and
// panics, because the double dispatch would corrupt the interleaving.
func (c *Coro) Unpark(d Time) {
	if !c.parked {
		panic(fmt.Sprintf("sim: Unpark of non-parked coro %q", c.name))
	}
	c.parked = false
	c.eng.afterCoro(d, c)
}

// Parked reports whether the coro is suspended waiting for Unpark.
func (c *Coro) Parked() bool { return c.parked }
