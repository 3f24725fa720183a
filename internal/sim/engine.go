package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// ErrDeadlock is returned by Engine.Run when the event queue drains while
// simulated contexts are still parked: no event can ever wake them again.
var ErrDeadlock = errors.New("sim: deadlock: event queue empty with parked contexts")

// errKilled is the panic value used to unwind a Coro during Engine shutdown.
var errKilled = errors.New("sim: coro killed at engine shutdown")

// event is a scheduled occurrence. Events at equal times fire in
// schedule-time order (at — the virtual instant the event was scheduled),
// then scheduling order (seq breaks the remaining ties), which keeps runs
// deterministic.
//
// On a single engine the (when, at, seq) order is provably identical to
// the old (when, seq) order: the clock never moves backwards, so schedule
// calls see non-decreasing now, and seq increments on every schedule —
// hence at1 < at2 implies seq1 < seq2 and the extra key changes nothing.
// What it buys is sharding: a cross-shard message delivered at a window
// barrier carries the virtual time its send was scheduled at, and the at
// key slots it among the destination's own events exactly where the
// serial engine's global seq would have — see Sharded and DESIGN.md
// "Sharded execution legality".
//
// The common case — waking a sleeping, starting, or unparked Coro — carries
// the coro directly in coro and leaves fn nil, so the schedule-dispatch
// cycle allocates no closure. fn is only used for engine-level callbacks
// (At/After) and barrier-delivered messages.
type event struct {
	when Time
	at   Time
	seq  uint64
	fn   func()
	coro *Coro
}

// less orders events by (when, at, seq); seq is unique among events of
// one (when, at) pair, so this is a total order and any correct heap
// pops the exact same sequence.
func (ev *event) less(other *event) bool {
	if ev.when != other.when {
		return ev.when < other.when
	}
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventQueue is an index-based 4-ary min-heap over a value slice, ordered
// by (when, at, seq). Storing events by value means pushes reuse the
// slice's spare capacity — the popped slots are the free list — so
// steady-state scheduling is allocation-free. The 4-ary layout halves the
// tree depth of a binary heap and keeps each node's children in one cache
// line.
//
// No event is ever copied by value here: push writes the new event's
// fields once, into its final slot, after sifting a hole up; pop moves
// the minimum into the caller's event and sifts a hole down; every move
// goes field by field. A by-value copy of the 40-byte event compiles to
// 16-byte loads of slots just written as 8-byte fields, and the failed
// store-to-load forwarding stalled the event path (DESIGN.md "No
// by-value event copies").
type eventQueue struct {
	a []event
}

func (q *eventQueue) len() int { return len(q.a) }

// push inserts the event (when, at, seq, fn, coro), moving each parent
// that orders after it one level down and writing the event where the
// hole stops.
func (q *eventQueue) push(when, at Time, seq uint64, fn func(), coro *Coro) {
	i := len(q.a)
	if i < cap(q.a) {
		q.a = q.a[:i+1]
	} else {
		q.a = append(q.a, event{})
	}
	a := q.a
	key := event{when: when, at: at, seq: seq}
	for i > 0 {
		p := (i - 1) / 4
		pe := &a[p]
		if pe.when < when || pe.when == when && pe.less(&key) {
			break
		}
		h := &a[i]
		h.when, h.at, h.seq, h.fn, h.coro = pe.when, pe.at, pe.seq, pe.fn, pe.coro
		i = p
	}
	h := &a[i]
	h.when, h.at, h.seq, h.fn, h.coro = when, at, seq, fn, coro
}

// pop moves the minimum event into out and refills the root by sifting a
// hole down to where the last event belongs. The smallest child is picked
// on when alone, with the full less only on ties. The vacated slot is
// cleared so the queue holds no stale fn/coro pointers.
func (q *eventQueue) pop(out *event) {
	a := q.a
	top := &a[0]
	out.when, out.at, out.seq, out.fn, out.coro = top.when, top.at, top.seq, top.fn, top.coro
	n := len(a) - 1
	last := &a[n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		min := first
		mw := a[first].when
		for c := first + 1; c < end; c++ {
			if w := a[c].when; w < mw || w == mw && a[c].less(&a[min]) {
				min, mw = c, w
			}
		}
		me := &a[min]
		if last.when < mw || last.when == mw && last.less(me) {
			break
		}
		h := &a[i]
		h.when, h.at, h.seq, h.fn, h.coro = me.when, me.at, me.seq, me.fn, me.coro
		i = min
	}
	h := &a[i]
	h.when, h.at, h.seq, h.fn, h.coro = last.when, last.at, last.seq, last.fn, last.coro
	last.fn, last.coro = nil, nil
	q.a = a[:n]
}

// Engine is the discrete-event core: a virtual clock plus a priority queue
// of pending events. Exactly one simulated activity runs at any moment (the
// engine loop or a single Coro), so simulated state needs no locking and
// every run with the same inputs produces the same history.
type Engine struct {
	// The fields every event reads come first, ahead of the mechanism
	// counters: placed after them, the two-shard ring ran 19% slower.
	now     Time
	seq     uint64
	queue   eventQueue
	running bool
	stopped bool
	// lane holds the spin-epoch members, whose futile charges are
	// applied only when something needs them (DESIGN.md "Lazy
	// members"); laneNext is the earliest next instant among them.
	// Every move of the clock settles the lane first (settleLane,
	// canInline). Members that leave together move to the slice's tail
	// first (pushLeaving); applied counts the members a materialization
	// applied.
	lane     []epochMember
	laneNext Time
	applied  int
	// runs counts Run/runWindow starts, which harm every spinner (see
	// Engine.harm).
	runs uint64

	// live tracks spawned coros that have not finished, for shutdown and
	// deadlock detection.
	live map[*Coro]struct{}
	// coroSeq numbers coros in spawn order so shutdown can unwind them
	// deterministically.
	coroSeq uint64
	// failure records the first panic raised inside a Coro.
	failure error

	// noInline disables the self-wakeup fast path (see Coro.Sleep): when a
	// sleeping coro's wakeup would provably be the next event dispatched,
	// the engine advances the clock in place and lets the coro keep running
	// instead of parking it. The zero value keeps the fast path on; tests
	// force it off to prove both paths produce identical histories.
	noInline bool
	// noBatch disables the batched-spin fast path (see Coro.SpinUntil and
	// Engine.SetBatchedSpins): busy-wait loops then charge per iteration
	// through the open-coded slow path.
	noBatch bool
	// stats counts the mechanism (see Stats); reported is the part of it
	// already added to the process totals.
	stats, reported Stats
	// limited/limit bound inline time advancement to a sharded window,
	// so a coro cannot run past the last instant the engine loop would
	// fire. That bound is what keeps the spin fast-forward shard-local: a
	// commit can never cross the window barrier.
	limited bool
	limit   Time

	// rank is the engine's shard rank when it runs under a Sharded
	// coordinator, -1 on a standalone serial engine. Used only for
	// diagnostics (deadlock reports name the shard).
	rank int
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{
		live:     make(map[*Coro]struct{}),
		noInline: noInlineDefault.Load(),
		noBatch:  noBatchDefault.Load(),
		rank:     -1,
	}
}

// noInlineDefault and noBatchDefault are the process-wide fast-path
// defaults for new engines (false = on). Only tests set them, to run
// whole experiments, whose engines they cannot reach, in every engine
// mode.
var noInlineDefault, noBatchDefault atomic.Bool

// SetDefaultInlineWakeups sets whether newly created engines take the
// inline self-wakeup fast path. Existing engines are unaffected;
// SetInlineWakeups overrides per engine.
func SetDefaultInlineWakeups(on bool) { noInlineDefault.Store(!on) }

// SetDefaultBatchedSpins sets whether newly created engines batch spin
// probes. Existing engines are unaffected; SetBatchedSpins overrides
// per engine.
func SetDefaultBatchedSpins(on bool) { noBatchDefault.Store(!on) }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetInlineWakeups enables (the default) or disables the self-wakeup fast
// path: a coro whose Sleep wakeup is provably the next dispatch advances
// the clock in place and keeps running, skipping the event heap and the
// coroutine switch there and back. Both settings produce byte-identical
// histories — the differential test suite runs every workload both ways —
// so the only reason to turn it off is to exercise or measure the slow
// path.
func (e *Engine) SetInlineWakeups(on bool) { e.noInline = !on }

// canInline reports whether a self-wakeup at when may run inline: the
// engine not stopping, the wakeup strictly earlier than every pending
// event in the heap (equal times must go through the queue — an
// already-queued event at the same time has a smaller seq and fires
// first), within the sharded window when one is active, and no
// spin-lane member that must materialize by then: none harmed or at its
// own instant by when, and none popping at when itself. The wakeup may pass members' futile pops
// before when; when it may run, canInline passes them, so the caller
// must advance to when. Callers have already checked noInline and the
// coro's own state.
func (e *Engine) canInline(when Time) bool {
	if e.stopped {
		return false
	}
	if e.queue.len() > 0 && when >= e.queue.a[0].when || e.limited && when > e.limit {
		return false
	}
	if len(e.lane) > 0 && when >= e.laneNext {
		if e.laneStop(when, true) <= when {
			e.stats.LaneRefusals++
			return false
		}
		if e.advanceLane(when) > 0 {
			e.stats.LanePassed++
		}
	}
	return true
}

// advanceInline performs the virtual dispatch of an inline self-wakeup:
// the clock and sequence counter move exactly as if the wakeup event had
// been scheduled, popped, and fired, so everything observable downstream
// (Now, tie-break order among later events) is identical to the slow path.
func (e *Engine) advanceInline(when Time) {
	e.stats.InlineWakeups++
	e.seq++
	e.now = when
}

// schedule pushes onto the event heap an event carrying fn or coro,
// stamped with the (clamped) time, the schedule instant, and the next
// sequence number. Scheduling in the past is rounded up to the present.
func (e *Engine) schedule(when Time, fn func(), coro *Coro) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	e.queue.push(when, e.now, e.seq, fn, coro)
}

// scheduleMessage pushes a barrier-delivered cross-shard message: an
// event whose schedule instant at is the virtual time the *sending*
// shard issued it, not the current clock. The (when, at, seq) order then
// places the message exactly where the serial engine — which would have
// scheduled the same event at the sender's instant — would fire it
// relative to this shard's own events. Only the Sharded coordinator's
// barrier may call this; delivery order across messages is fixed by the
// mailbox merge, which assigns seq in (when, at, src rank, send order).
func (e *Engine) scheduleMessage(when, at Time, fn func()) {
	if e.running {
		panic("sim: scheduleMessage while the engine is running (barrier delivery only)")
	}
	if when < e.now {
		panic(fmt.Sprintf("sim: cross-shard message arrives at %s, before shard %d's clock %s (lookahead violated)",
			when, e.rank, e.now))
	}
	e.seq++
	e.queue.push(when, at, e.seq, fn, nil)
}

// At schedules fn to run at the given absolute virtual time. Scheduling in
// the past is rounded up to the present.
func (e *Engine) At(when Time, fn func()) {
	e.schedule(when, fn, nil)
}

// After schedules fn to run d from now. Negative delays fire immediately
// (at the current time, after already-queued events for that time).
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn, nil)
}

// afterCoro schedules a dispatch of c after d, carrying the coro in the
// event itself. This is the allocation-free fast path under Coro.Start,
// Sleep, and Unpark.
func (e *Engine) afterCoro(d Time, c *Coro) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, nil, c)
}

// fire executes one popped event: a direct coro dispatch on the fast path,
// otherwise the scheduled callback. A coro suspended inside a spin
// emulation (Coro.SpinUntil) is not resumed — the event advances its
// state machine engine-side instead, and the body resumes only when
// the whole busy-wait loop completes.
func (e *Engine) fire(ev *event) {
	if c := ev.coro; c != nil {
		if c.spinning && !c.killed {
			e.stats.SpinCharges++
			if e.runSpin(c.spin) {
				e.dispatch(c)
			}
			return
		}
		e.dispatch(c)
		return
	}
	e.stats.LaneSurvivals += uint64(len(e.lane))
	ev.fn()
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of scheduled events, counting one for each
// spin-lane member's pending charge.
func (e *Engine) Pending() int { return e.queue.len() + len(e.lane) }

// Live reports the number of spawned coros that have not yet finished.
func (e *Engine) Live() int { return len(e.live) }

// Run executes events in time order until the queue is empty, Stop is
// called, or a Coro panics. It returns ErrDeadlock if the queue drains
// while coros are still parked, and the recovered error if a Coro fails.
// In every case the engine winds down all remaining coros, so each one's
// worker goes back to the idle pool.
func (e *Engine) Run() error {
	return e.runEvents("Run", MaxTime, func() error {
		err := e.failure
		if err == nil && !e.stopped && len(e.live) > 0 {
			err = e.deadlockError()
		}
		e.shutdown()
		if e.failure != nil && err == nil {
			err = e.failure
		}
		return err
	})
}

// runEvents is the event loop Run and runWindow share. It
// refuses a reentrant call, naming caller. Otherwise it fires every event
// due at or before last, in (when, at, seq) order, until none is due,
// Stop is called or a Coro fails, and returns what the caller's epilogue
// returns; the epilogue runs while the engine still counts as running.
// A last below MaxTime also bounds inline wakeups and the spin lane, so
// no coro commits time past it. Before the epilogue the lane empties
// into the heap, its members' charges applied up to last (up to the
// clock after Stop or a failure), and the clock moves to the last of
// those charges, where the per-charge engine's last event would leave
// it.
func (e *Engine) runEvents(caller string, last Time, epilogue func() error) error {
	if e.running {
		return fmt.Errorf("sim: Engine.%s called reentrantly", caller)
	}
	e.running, e.stopped = true, false
	e.limited, e.limit = last < MaxTime, last
	defer func() {
		e.running, e.limited = false, false
		e.reportStats()
	}()

	// Anything may have changed simulated state since the last run.
	e.runs++
	var ev event // one event reused by every pop: no by-value copies
	q := &e.queue
	for !e.stopped && e.failure == nil {
		if len(e.lane) > 0 {
			if !e.settleLane(last) {
				break
			}
		} else if len(q.a) == 0 || q.a[0].when > last {
			break
		}
		q.pop(&ev)
		e.stats.Events++
		e.now = ev.when
		e.fire(&ev)
	}
	if len(e.lane) > 0 {
		end := last
		if e.stopped || e.failure != nil {
			end = e.now
		}
		e.now = e.flushLane(end, leaveEnd)
	}
	return epilogue()
}

// deadlockError builds the queue-drained-with-parked-coros report. It
// names the parked coros (in spawn order, capped) and — when the engine
// runs as one shard of a Sharded machine — the shard rank, so a stall in
// a sharded run points at the right heap instead of implying one global
// queue. The Sharded coordinator extends this with the mailbox-edge
// summary only it can see.
func (e *Engine) deadlockError() error {
	return fmt.Errorf("%w (%s)", ErrDeadlock, e.parkedReport())
}

// parkedReport lists the live (parked) coros by name in spawn order,
// prefixed with the shard rank when the engine is a shard.
func (e *Engine) parkedReport() string {
	type entry struct {
		id   uint64
		name string
	}
	parked := make([]entry, 0, len(e.live))
	for c := range e.live {
		parked = append(parked, entry{c.id, c.name})
	}
	sort.Slice(parked, func(i, j int) bool { return parked[i].id < parked[j].id })
	const maxNames = 8
	names := make([]string, 0, maxNames+1)
	for i, p := range parked {
		if i == maxNames {
			names = append(names, fmt.Sprintf("… %d more", len(parked)-maxNames))
			break
		}
		names = append(names, p.name)
	}
	where := ""
	if e.rank >= 0 {
		where = fmt.Sprintf("shard %d: ", e.rank)
	}
	return fmt.Sprintf("%s%d parked: %s", where, len(parked), strings.Join(names, ", "))
}

// runWindow executes events strictly before end: the shard-side half of
// one Sharded window. Unlike Run it performs no shutdown and reports no
// deadlock — a drained queue here only means this shard is waiting on
// cross-shard messages, which the coordinator's barrier may yet deliver;
// only the coordinator can see that every queue is dry. Inline
// advancement and spin fast-forwards are bounded to end-1, so no coro
// can commit time at or past the barrier. The clock is left at the last
// fired event (not advanced to end): the next window's start is computed
// from queue heads, and a shard that fired nothing keeps its old clock.
func (e *Engine) runWindow(end Time) error {
	return e.runEvents("runWindow", end-1, func() error { return e.failure })
}

// nextEventTime reports the earliest pending event's time, or false when
// the queue is empty. The Sharded coordinator uses it between windows
// (never while the engine runs) to pick the next global window start.
func (e *Engine) nextEventTime() (Time, bool) {
	t, ok := MaxTime, false
	if e.queue.len() > 0 {
		t, ok = e.queue.a[0].when, true
	}
	if len(e.lane) > 0 && e.laneNext < t {
		t, ok = e.laneNext, true
	}
	return t, ok
}

// shutdown unwinds any coros that are still parked by resuming them with
// the kill flag set; each panics with errKilled, which its wrapper absorbs.
// Coros unwind in spawn order (lowest id first) so kill-path traces and
// panic diagnostics are reproducible run to run — ranging over the live
// map would pick an arbitrary victim each iteration.
func (e *Engine) shutdown() {
	for len(e.live) > 0 {
		var c *Coro
		//simlint:allow maporder -- min-by-id selection reads every key; the result is iteration-order independent
		for k := range e.live {
			if c == nil || k.id < c.id {
				c = k
			}
		}
		c.killed = true
		e.dispatch(c)
	}
	e.reportStats()
}

// dispatch switches to c's body until it yields, parks, or finishes. It
// must only be called from the engine side (event callbacks or Run). The
// first dispatch binds c to a worker; the dispatch that sees c finish —
// normally, by panic, or killed — returns the worker to the idle pool,
// the only place a worker is ever released (DESIGN.md "Engine
// invariants").
func (e *Engine) dispatch(c *Coro) {
	e.stats.Dispatches++
	e.stats.LaneSurvivals += uint64(len(e.lane))
	if c.w == nil {
		c.w = getWorker()
		c.w.c = c
	}
	c.w.next()
	if c.done {
		putWorker(c.w)
		c.w = nil
	}
}

// fail records the first error raised by a Coro and stops the run.
func (e *Engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.stopped = true
}
