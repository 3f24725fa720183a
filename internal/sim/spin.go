package sim

import (
	"cmp"
	"slices"
)

// This file implements batched busy-wait probes: the fast path that
// simulates a spin loop's repeated futile iterations without a
// coroutine switch per charge and — until something harms a spinner, a
// spin epoch — arithmetically, many iterations of every concurrent
// spinner at once. The per-iteration slow path is preserved behind
// Engine.SetBatchedSpins(false) and is byte-identical in every simulated
// observable: (now, seq) stream, accessor accrual, module-contention
// accounting, and iteration counts. See DESIGN.md "Batched spin
// emulation and spin epochs" for the legality argument.

// SpinUnbounded as a SpinSpec.MaxIters means the loop spins until the
// probe succeeds.
const SpinUnbounded int64 = -1

// SpinSpec describes one busy-wait loop shape to Coro.SpinUntil:
//
//	for {
//		charge ProbeCell reference (if any)
//		if Probe() { return ok }
//		if MaxIters reached { return exhausted }
//		charge PauseCost()
//	}
//
// For the batched fast path to be exact the loop must satisfy the
// busy-wait contract:
//
//   - A futile Probe leaves simulated state unchanged (a test-and-set
//     that finds the word held writes back the value it read), so
//     re-running it while nothing harms the spinner keeps failing with
//     no side effect.
//   - Probe performs at most the one memory reference described by
//     ProbeCell/ProbeAtomic; it reads (and conditionally writes) state
//     via Peek/Poke — the charge has already been applied.
//   - Probe and PauseCost read no clock, busy time or module counter —
//     the only state futile spin charges change — so PauseCost is
//     constant while only futile spin charges run.
//   - With ProbeCell set, Probe and PauseCost depend only on that cell's
//     value (and on values fixed for the call), unless the spec is
//     Volatile. The engine then keeps a spinner batched across every
//     occurrence that leaves the cell's value alone.
//
// All of the package's locks satisfy the contract by construction; the
// differential spin suites verify the equivalence end to end.
type SpinSpec struct {
	// ProbeCell is the shared word one probe references, nil when the
	// probe inspects plain (uncharged) simulated state.
	ProbeCell *Cell
	// ProbeAtomic charges the probe as a read-modify-write (atomior)
	// instead of a plain reference.
	ProbeAtomic bool
	// Probe evaluates the exit condition at the instant the probe's
	// charge completes, mutating the cell via Peek/Poke if the loop's
	// real probe is a read-modify-write. It reports success.
	Probe func() bool
	// PauseCost is the busy-wait pause charged after each futile probe.
	PauseCost func() Time
	// Volatile declares that Probe or PauseCost reads state other than
	// ProbeCell's value — a waiter count, a plain Go flag — which any
	// coroutine dispatch, callback or slice boundary may change. A
	// volatile loop never joins the spin lane: it runs one charge at a
	// time. A spec with no ProbeCell is volatile whatever this says.
	Volatile bool
	// MaxIters bounds the futile iterations (pauses) before SpinUntil
	// gives up; SpinUnbounded (negative) spins until Probe succeeds, 0
	// probes once and gives up immediately.
	MaxIters int64
	// Label names the loop for virtual-time attribution (e.g.
	// "spin:lock-a"); cthreads.Thread.SpinUntil brackets the loop with a
	// profiler frame when both a label and a profiler are present. Empty
	// means unattributed; the simulation itself never reads it.
	Label string
}

// SpinContext is the accessor-side contract SpinUntil needs beyond plain
// Accessor: splitting one Advance into scheduling-boundary-aware accrual
// steps, so the engine-side spin emulator charges time through exactly
// the same bookkeeping Advance would. cthreads.Thread implements it with
// quantum preemption; simpler accessors report no boundaries.
type SpinContext interface {
	Accessor
	// SpinAccrue books up to d of computation against the context and
	// returns how much was booked along with whether the context hit a
	// scheduling boundary (e.g. its timeslice expired) at the step's end.
	SpinAccrue(d Time) (step Time, boundary bool)
	// SpinBoundary handles a boundary hit by SpinAccrue: either the
	// context is descheduled (true — the caller must suspend until the
	// context is dispatched again) or the boundary is absorbed in place
	// (false).
	SpinBoundary() (descheduled bool)
	// SpinBudget reports how much computation the context can accrue
	// before its next scheduling boundary; MaxTime means no boundary.
	SpinBudget() Time
}

// SetBatchedSpins enables (the default) or disables the batched-spin
// fast path on this engine. Both settings produce byte-identical
// simulated histories — the differential spin suites prove it — so the
// only reason to turn it off is to exercise or measure the slow path.
func (e *Engine) SetBatchedSpins(on bool) { e.noBatch = !on }

// spinPC is the resume point of a suspended spin emulation.
type spinPC uint8

const (
	spinProbeStart    spinPC = iota // begin an iteration: reserve the probe's access
	spinAccrue                      // book the next accrual step of the current charge
	spinAfterSleep                  // a step's virtual time has elapsed; check the boundary
	spinAfterBoundary               // boundary handled (or none); continue the charge
	spinProbeEval                   // probe charge complete: evaluate the exit condition
	spinIterEnd                     // pause charge complete: an iteration finished
)

// spinWaitKind distinguishes what a suspended spin emulation is waiting
// for, so SpinUntil can set the coro's parked flag correctly.
type spinWait uint8

const (
	spinWaitNone     spinWait = iota
	spinWaitEvent             // a charge-completion event is queued
	spinWaitDispatch          // preempted; the processor will Unpark the coro
)

// spinState is the resumable state of one SpinUntil call. While the
// owning coro's body is suspended, the engine advances this state
// machine directly from fired events — the body is resumed only
// when the whole loop completes (or the coro is killed).
type spinState struct {
	c    *Coro
	ctx  SpinContext
	spec SpinSpec

	pc   spinPC
	wait spinWait

	iters int64 // futile iterations (pauses) so far
	ok    bool  // probe succeeded (vs MaxIters exhausted)

	inProbe   bool // current charge is the probe's (vs the pause's)
	remaining Time // unbooked remainder of the current charge
	boundary  bool // last accrual step ended on a scheduling boundary

	probeBase Time // fixed access cost of one probe (0 when no cell)
	probeX    Time // atomic surcharge passed to reserveAccess
	volatile  bool // spec.Volatile, or no probe cell: never joins the lane

	// Steady-state detection for spin epochs, run only for a persistent
	// spinner: an iteration is clean when nothing harmed the spinner
	// (Engine.harm) from its probe reservation through its pause; steady
	// means the last two iterations were clean with equal (module delay,
	// pause), which by the busy-wait contract fixes every further
	// iteration until the spinner is harmed (see Engine.isEpochMember).
	seenRuns             uint64 // the engine's run count at this iteration's probe reservation
	seenVal              uint64 // the probe cell's value at the last probe evaluation
	descheduled          bool   // preempted under module contention, or its module reserved by another, since the reservation
	resvAt               Time   // when this iteration's probe reserved its module
	haveLast             bool   // the last iteration was clean
	steady               bool
	lastDelay, lastPause Time
	curDelay, curPause   Time
}

// SpinUntil runs the busy-wait loop described by spec until its probe
// succeeds or MaxIters futile iterations have been charged, returning
// the futile-iteration count and whether the probe succeeded. Each
// iteration charges exactly what the open-coded loop would: one
// ProbeCell reference (with module queueing), then — if futile — one
// PauseCost of computation through ctx's accrual, preemption included.
// The fast path copies *spec at entry, so the caller must not change it
// while the loop runs.
//
// Fast path: the loop runs as an engine-side state machine, so charges
// that cannot accrue inline cost one event but no coroutine handoff, and
// once two consecutive iterations prove a fixed per-iteration profile,
// the spinner joins the spin lane, where its futile iterations cost
// nothing until something needs them (see Engine.joinLane). With
// batching disabled the loop is open-coded per iteration instead; both
// paths produce byte-identical simulated histories.
func (c *Coro) SpinUntil(ctx SpinContext, spec *SpinSpec) (iters int64, ok bool) {
	e := c.eng
	if e.noBatch {
		return c.spinSlow(ctx, spec)
	}
	s := spinState{c: c, ctx: ctx, spec: *spec, pc: spinProbeStart, volatile: spec.Volatile || spec.ProbeCell == nil}
	if cell := spec.ProbeCell; cell != nil {
		if spec.ProbeAtomic {
			s.probeX = cell.m.cfg.AtomicExtra
		}
		s.probeBase = cell.m.AccessCost(ctx.Node(), cell.node) + s.probeX
	}
	if e.runSpin(&s) {
		return s.iters, s.ok
	}
	// Suspended: move the state into the coro's own spin state (allocated
	// at its first suspension, reused after), hand the coro to the engine,
	// and let fired events drive the emulation to completion.
	if c.spin == nil {
		c.spin = new(spinState)
	}
	hs := c.spin
	*hs = s
	c.spinning = true
	c.yieldToEngine()
	c.spinning = false
	iters, ok = hs.iters, hs.ok
	*hs = spinState{} // drop the spec's closures and the context
	return iters, ok
}

// spinSlow is the per-iteration open-coded loop: the reference
// implementation the emulator must match byte for byte.
func (c *Coro) spinSlow(ctx SpinContext, spec *SpinSpec) (iters int64, ok bool) {
	//simlint:allow rawspin -- this IS the reference spin loop that SpinUntil and the fast-forward must match
	for {
		if cell := spec.ProbeCell; cell != nil {
			extra := Time(0)
			if spec.ProbeAtomic {
				extra = cell.m.cfg.AtomicExtra
			}
			cell.m.chargeAccess(ctx, cell.node, extra)
		}
		if spec.Probe() {
			return iters, true
		}
		if spec.MaxIters >= 0 && iters >= spec.MaxIters {
			return iters, false
		}
		iters++
		p := spec.PauseCost()
		ctx.Advance(p)
	}
}

// runSpin advances a spin emulation until it completes (true) or must
// suspend awaiting an event or redispatch (false). It is called first
// synchronously from SpinUntil and then from Engine.fire each time one
// of the coro's events pops while c.spinning is set.
//
// Each charge is booked through SpinContext.SpinAccrue in
// boundary-bounded steps, each step advancing virtual time exactly as
// the equivalent Coro.Sleep would: inline when the engine's self-wakeup
// conditions hold (one seq bump, clock forward), otherwise by scheduling
// a continuation event carrying the coro — the same (when, at, seq) the
// slow path's sleep event would occupy, so downstream tie-breaking is
// unchanged. A steady spinner joins the spin lane instead, with its
// continuation's key as its pop 0 (Engine.joinLane).
func (e *Engine) runSpin(s *spinState) bool {
	for {
		switch s.pc {
		case spinProbeStart:
			s.seenRuns, s.descheduled, s.resvAt = e.runs, false, e.now
			if cell := s.spec.ProbeCell; cell != nil {
				cost, delay := cell.m.reserveAccess(s.ctx.Node(), cell.node, s.probeX)
				s.curDelay = delay
				s.remaining = cost
				s.inProbe = true
				s.pc = spinAccrue
			} else {
				s.curDelay = 0
				s.pc = spinProbeEval
			}

		case spinAccrue:
			step, boundary := s.ctx.SpinAccrue(s.remaining)
			s.remaining -= step
			s.boundary = boundary
			s.pc = spinAfterSleep
			when := e.now + step
			if e.isEpochMember(s) {
				e.joinLane(s, when)
				s.wait = spinWaitEvent
				return false
			}
			if e.noInline || !e.canInline(when) {
				e.schedule(when, nil, s.c)
				s.wait = spinWaitEvent
				return false
			}
			e.advanceInline(when)

		case spinAfterSleep:
			s.wait = spinWaitNone
			s.pc = spinAfterBoundary
			if s.boundary && s.ctx.SpinBoundary() {
				// Preempted mid-charge: the processor's next dispatch of
				// this context resumes the emulation via Unpark. Under
				// module contention the gap breaks the timing the module
				// recurrence's fixed point depends on.
				if cell := s.spec.ProbeCell; cell != nil && cell.m.cfg.ModuleService > 0 {
					s.descheduled = true
				}
				s.wait = spinWaitDispatch
				s.c.parked = true
				return false
			}

		case spinAfterBoundary:
			s.wait = spinWaitNone
			if s.remaining > 0 {
				s.pc = spinAccrue
				continue
			}
			if s.inProbe {
				s.pc = spinProbeEval
			} else {
				s.pc = spinIterEnd
			}

		case spinProbeEval:
			if cell := s.spec.ProbeCell; cell != nil {
				s.seenVal = cell.v
			}
			if s.spec.Probe() {
				s.ok = true
				return true
			}
			if max := s.spec.MaxIters; max >= 0 && s.iters >= max {
				s.ok = false
				return true
			}
			s.iters++
			p := s.spec.PauseCost()
			if p < 0 {
				p = 0
			}
			s.curPause = p
			s.remaining = p
			s.inProbe = false
			s.pc = spinAccrue

		case spinIterEnd:
			if !s.volatile {
				clean := e.harm(s) == harmNone
				s.steady = clean && s.haveLast && s.lastDelay == s.curDelay && s.lastPause == s.curPause
				s.haveLast = clean
				s.lastDelay, s.lastPause = s.curDelay, s.curPause
			}
			s.pc = spinProbeStart
		}
	}
}

// harmCause names why a member leaves the lane: what, if anything, has
// harmed it — changed what its next probe would see or what its next
// iteration would cost — or else the reason it must fire for real.
type harmCause uint8

const (
	harmNone   harmCause = iota
	harmCell             // its probe cell holds another value than its last probe saw
	harmModule           // someone else reserved its module, or a preemption broke its timing
	harmRun              // a run started, after which anything may have changed
	leaveOwn             // its slice boundary or MaxIters exhaustion, or nothing else left to run
	leaveTie             // another occurrence at an instant where it pops
	leaveEnd             // the event loop ends
)

// harm reports what has harmed s since its current iteration's probe
// reservation, harmNone when nothing has (module reservations aside,
// which moduleSteady checks before a spinner joins and reserveAccess
// flags while it is a member). s must be persistent. The engine's run
// count only grows, so a count that moved since the reservation records
// a run start in between. The probe cell is compared by value: by the
// busy-wait contract a persistent spec's probe and pause depend only on
// it, so a write that leaves the value the last probe saw — a futile
// test-and-set's write-back, or a release and re-acquisition between two
// probes — changes nothing the spinner can see.
func (e *Engine) harm(s *spinState) harmCause {
	switch {
	case s.descheduled:
		return harmModule
	case s.seenRuns != e.runs:
		return harmRun
	case s.spec.ProbeCell.v != s.seenVal:
		return harmCell
	}
	return harmNone
}

// isEpochMember reports whether s, about to wait for a charge completion,
// may join the spin lane: batching possible at all, the last two
// iterations clean with equal profiles (so s is persistent: a volatile
// spinner is never steady), the current one clean so far and matching
// them, no slice boundary pending, every charge of positive length,
// and — when the probed module models contention — the module's
// recurrence at its fixed point with s the only member probing it.
func (e *Engine) isEpochMember(s *spinState) bool {
	if e.noInline || e.stopped {
		return false
	}
	if !s.steady || s.boundary || e.harm(s) != harmNone || s.curDelay != s.lastDelay ||
		!s.inProbe && s.curPause != s.lastPause || s.lastPause <= 0 ||
		s.probeBase+s.lastDelay <= 0 || s.probeBase+s.lastDelay+s.lastPause > maxSpinPeriod ||
		!moduleSteady(s) {
		return false
	}
	cell := s.spec.ProbeCell
	return cell.m.spinner == nil || cell.m.spinner[cell.node] == nil
}

// moduleSteady reports whether s's next probe reservation sees the
// module recurrence at its fixed point: either the machine models no
// module contention, or the module's last reservation is still s's own
// (moduleFree = its start + service) and s's steady delay is the
// recurrence's fixed point max(0, service − base − pause). Then every
// reservation s makes while no one else reserves the module has that
// same delay.
func moduleSteady(s *spinState) bool {
	cell := s.spec.ProbeCell
	m := cell.m
	svc := m.cfg.ModuleService
	if svc <= 0 {
		return true
	}
	fixed := svc - s.probeBase - s.lastPause
	if fixed < 0 {
		fixed = 0
	}
	return s.lastDelay == fixed && m.moduleFree[cell.node] == s.resvAt+s.curDelay+svc
}

// maxSpinPeriod bounds a member's iteration, so the pop arithmetic
// below cannot overflow at any instant a run reaches.
const maxSpinPeriod = Time(1) << 40

// epochMember is a lane member's geometry and progress. A steady
// member's futile charges complete ("pop") at fixed offsets from the
// completion it joined with: pop k fires at w + ⌊k/2⌋·per + (k mod 2)·g1.
// A pop either evaluates the probe (and schedules the pause) or ends an
// iteration (and reserves and schedules the next probe charge).
type epochMember struct {
	c *Coro
	// w, at and seq are pop 0's time and event key: the real key the
	// charge the member joined with would have had.
	w   Time
	at  Time
	seq uint64
	// g1 and per place the pops; evalParity (0 or 1) is the parity of
	// the pops that evaluate the probe.
	g1, per    Time
	evalParity int64
	// k counts the pops behind the clock, done the pops whose effects
	// are applied (done ≤ k); booked is when the charge booked so far
	// completes: pop done, or the slice boundary that truncates it.
	k, done int64
	booked  Time
	// own is the member's own instant — its slice boundary or the probe
	// evaluation that exhausts MaxIters, MaxTime when it has none — and
	// next the earlier of pop k and own: the member's next instant.
	own  Time
	next Time
}

// pop returns the time of pop k.
func (m *epochMember) pop(k int64) Time {
	return m.w + Time(k/2)*m.per + Time(k%2)*m.g1
}

// evals counts the probe evaluations among the first n pops.
func (m *epochMember) evals(n int64) int64 {
	return (n + 1 - m.evalParity) / 2
}

// popsBy counts the pops at or before h.
func (m *epochMember) popsBy(h Time) int64 {
	if h < m.w {
		return 0
	}
	q := int64((h - m.w) / m.per)
	n := 2*q + 1
	if m.pop(2*q+1) <= h {
		n++
	}
	return n
}

// ownAt returns the member's own instant — the slice boundary after
// budget b, or the probe evaluation that exhausts MaxIters with left
// futile iterations to go (left < 0: unbounded) — or MaxTime when it
// has none.
func (m *epochMember) ownAt(b Time, left int64) Time {
	end := MaxTime
	if b != MaxTime && b <= MaxTime-m.w {
		end = m.w + b
	}
	if left < 0 {
		return end
	}
	// The exhausting evaluation is the (left+1)-th: pop 2·left +
	// evalParity.
	t := m.w + Time(m.evalParity)*m.g1
	if left <= int64((MaxTime-t)/m.per) {
		if t += Time(left) * m.per; t < end {
			end = t
		}
	}
	return end
}

// popBefore reports whether x's pop a fires before y's pop b, given that
// both fire at the same instant. The per-charge engine orders them by
// the instants their events were scheduled at — the pops before them —
// and equal instants by the order of those pops, so the walk goes back
// pop by pop until the chains part or one reaches its pop 0, whose real
// key decides (DESIGN.md "Lazy members": a real key is never scheduled
// at an instant where a member popped lazily). Two equal gaps in a row
// mean the chains coincide all the way back, since every chain's gaps
// repeat with period two.
func popBefore(x *epochMember, a int64, y *epochMember, b int64) bool {
	for step := 0; ; step++ {
		if a == 0 || b == 0 {
			xa, ya := x.at, y.at
			if a > 0 {
				xa = x.pop(a - 1)
			}
			if b > 0 {
				ya = y.pop(b - 1)
			}
			if xa != ya {
				return xa < ya
			}
			if a == 0 && b == 0 {
				return x.seq < y.seq
			}
			return a == 0
		}
		xa, ya := x.pop(a-1), y.pop(b-1)
		if xa != ya {
			return xa < ya
		}
		a, b = a-1, b-1
		if step == 1 {
			d := min(a, b)
			a, b = a-d, b-d
		}
	}
}

// comparePending orders leaving members' pending pops by the key the
// per-charge engine would have given them: (when, at), then the order of
// the pops that scheduled them.
func comparePending(mx, my epochMember) int {
	switch {
	case mx.c == my.c:
		return 0
	case mx.booked != my.booked:
		return cmp.Compare(mx.booked, my.booked)
	case mx.pendingAt() != my.pendingAt():
		return cmp.Compare(mx.pendingAt(), my.pendingAt())
	case popBefore(&mx, mx.k, &my, my.k):
		return -1
	}
	return 1
}

// pendingAt is the schedule instant of the member's pending pop k.
func (m *epochMember) pendingAt() Time {
	if m.k == 0 {
		return m.at
	}
	return m.pop(m.k - 1)
}

// joinLane makes s, whose pending charge completes at when, a lane
// member: that completion is its pop 0, keyed as its event would have
// been, and from there on its pops cost nothing until it materializes
// (DESIGN.md "Lazy members").
func (e *Engine) joinLane(s *spinState, when Time) {
	e.seq++
	e.lane = append(e.lane, epochMember{c: s.c, w: when, at: e.now, seq: e.seq, booked: when, next: when})
	m := &e.lane[len(e.lane)-1]
	lp, p := s.probeBase+s.lastDelay, s.lastPause
	m.g1, m.per = p, lp+p
	if !s.inProbe {
		m.g1, m.evalParity = lp, 1
	}
	left := int64(-1)
	if max := s.spec.MaxIters; max >= 0 {
		left = max - s.iters
	}
	m.own = m.ownAt(s.ctx.SpinBudget(), left)
	if len(e.lane) == 1 || when < e.laneNext {
		e.laneNext = when
	}
	if cell := s.spec.ProbeCell; cell.m.spinner != nil {
		cell.m.spinner[cell.node] = s.c
	}
}

// passPops moves member m's clock-passed pops to n, counting each in the
// engine's seq as the per-charge engine's schedule would have.
func (e *Engine) passPops(m *epochMember, n int64) {
	e.seq += uint64(n - m.k)
	m.k = n
}

// laneStop returns the earliest instant at or before t (< MaxTime) at
// which a member must leave the lane — a harmed member's next pop, a
// member's own instant, or t itself when real (a real occurrence is due
// at t) and a member pops exactly at t — or MaxTime when there is none.
func (e *Engine) laneStop(t Time, real bool) Time {
	stop := MaxTime
	for i := range e.lane {
		m := &e.lane[i]
		switch {
		case m.next > t:
		case e.harm(m.c.spin) != harmNone:
			stop = min(stop, m.next)
		case m.own <= t:
			stop = min(stop, m.own)
		case real && m.pop(m.popsBy(t)-1) == t:
			stop = min(stop, t)
		}
	}
	return stop
}

// settleLane brings the lane up to the next real event, the heap head
// if it is due by last: it finds the earliest instant T at or before it
// where a member must leave, makes every member that must leave at T
// leave for the heap — where the pending pops then fire one charge at a
// time, in key order with the rest — and passes every other member's
// pops before T. It reports whether an event due by last is in the heap.
func (e *Engine) settleLane(last Time) bool {
	t, real := last, false
	if e.queue.len() > 0 && e.queue.a[0].when <= last {
		t, real = e.queue.a[0].when, true
	}
	if t < e.laneNext {
		return real
	}
	// MaxTime marks a member with no own instant, never one that is due.
	if stop := e.laneStop(min(t, MaxTime-1), real); stop != MaxTime {
		e.advanceLane(stop)
		return true
	}
	switch {
	case t == MaxTime:
		// Nothing else is pending, no member is harmed and none has an
		// instant of its own: the per-charge loop would spin forever, so
		// must we, one charge at a time, keeping the hang observable.
		e.flushLane(e.now, leaveOwn)
	case real:
		e.advanceLane(t)
	}
	return real || t == MaxTime
}

// advanceLane makes every member that must leave at T leave — harmed
// with its next pop at T, its own instant at T, or popping at T, where a
// real occurrence is due (laneStop found nothing earlier) — passes every
// other member's pops before T, and reports how many pops it passed.
func (e *Engine) advanceLane(T Time) int64 {
	var passed int64
	lane, n := e.lane, len(e.lane)
	e.laneNext = MaxTime
	for i := 0; i < n; {
		m := &lane[i]
		if m.next <= T {
			k, why := int64(-1), harmNone
			if h := e.harm(m.c.spin); h != harmNone && m.next == T {
				k, why = m.k, h
			} else if m.own == T {
				// Pending is the first pop at or after own: the charge
				// the boundary truncates, or the exhausting evaluation.
				k, why = m.popsBy(T-1), leaveOwn
			} else if p := m.popsBy(T); m.pop(p-1) == T {
				k, why = p-1, leaveTie
			} else {
				passed += p - m.k
				e.passPops(m, p)
				m.next = min(m.pop(p), m.own)
			}
			if k >= 0 {
				e.leave(m, k, why)
				n--
				lane[i], lane[n] = lane[n], lane[i]
				continue
			}
		}
		e.laneNext = min(e.laneNext, m.next)
		i++
	}
	e.pushLeaving(n)
	return passed
}

// flushLane passes every member's pops at or before L and makes the
// whole lane leave for the heap, each member at its next pop, for cause
// unless something harmed it. It returns the latest pop it passed, or
// the clock when it passed none.
func (e *Engine) flushLane(L Time, cause harmCause) Time {
	latest := e.now
	for i := range e.lane {
		m := &e.lane[i]
		if m.next <= L {
			if n := m.popsBy(L); n > m.k {
				e.passPops(m, n)
				latest = max(latest, m.pop(n-1))
			}
		}
		why := cause
		if h := e.harm(m.c.spin); h != harmNone {
			why = h
		}
		e.leave(m, m.k, why)
	}
	e.laneNext = MaxTime
	e.pushLeaving(0)
	return latest
}

// leave passes and applies every pop of member m before pop k, which
// it leaves the lane with, and counts why. The caller moves m to the
// lane's tail, which pushLeaving empties into the heap.
func (e *Engine) leave(m *epochMember, k int64, cause harmCause) {
	e.passPops(m, k)
	e.fastForwardSpin(m, k)
	if cell := m.c.spin.spec.ProbeCell; cell.m.spinner != nil {
		cell.m.spinner[cell.node] = nil
	}
	switch cause {
	case harmCell:
		e.stats.EvictCell++
	case harmModule:
		e.stats.EvictModule++
	case harmRun:
		e.stats.EvictRun++
	case leaveOwn:
		e.stats.EvictOwn++
	case leaveTie:
		e.stats.EvictTie++
	default:
		e.stats.EvictLoopEnd++
	}
}

// pushLeaving pushes the members in the lane from index n on, which
// left together, onto the heap, each with its pending pop's key, and
// truncates the lane to n. A pop 0 keeps its real key. Any other
// pending pop was scheduled by a lazy pop, at an instant where no real
// event was scheduled, so only pops of this same group can share its
// (when, at); those take the last seqs the counter issued, in the order
// the per-charge engine would have scheduled them (DESIGN.md "Lazy
// members", Seq).
func (e *Engine) pushLeaving(n int) {
	g := e.lane[n:]
	if len(g) == 0 {
		return
	}
	e.countCommit()
	if len(g) > 1 {
		slices.SortFunc(g, comparePending)
	}
	seq := e.seq
	for i := range g {
		if g[i].k > 0 {
			seq--
		}
	}
	for i := range g {
		m := &g[i]
		at, sq := m.at, m.seq
		if m.k > 0 {
			seq++
			at, sq = m.pop(m.k-1), seq
		}
		e.queue.push(m.booked, at, sq, nil, m.c)
	}
	clear(g)
	e.lane = e.lane[:n]
}

// SyncSpins brings every spin-lane member's accrued state — its
// context's busy time and slice, its iterations, its module's accesses,
// queue delay and reservation — up to the clock. Members apply their
// futile charges lazily, only when something needs them, so code that
// reads such state while the engine runs (Machine.ModuleAccesses,
// cthreads' busy-time accessors) calls this first. The members stay in
// the lane.
func (e *Engine) SyncSpins() {
	for i := range e.lane {
		if m := &e.lane[i]; m.done < m.k {
			e.fastForwardSpin(m, m.k)
			e.stats.StateReads++
		}
	}
	e.countCommit()
}

// moduleHarm records that someone else reserves the module member c
// probes: c's charges behind the clock are applied first, so the
// reservation reads c's last one, and c leaves at its next pop.
func (e *Engine) moduleHarm(c *Coro) {
	for i := range e.lane {
		if m := &e.lane[i]; m.c == c {
			e.fastForwardSpin(m, m.k)
			e.countCommit()
		}
	}
	c.spin.descheduled = true
}

// countCommit counts one materialization that applied the charges of
// the members fastForwardSpin advanced since the last one.
func (e *Engine) countCommit() {
	if e.applied > 0 {
		e.stats.Commits++
		if e.applied > 1 {
			e.stats.SharedCommits++
		}
		e.applied = 0
	}
}

// fastForwardSpin applies member m's pops before pop k in closed form:
// exactly what the per-charge engine's pops would have done to its
// state. Each pop books the charge it schedules, so the bulk SpinAccrue
// runs up to pop k (which leaves the slice and the boundary flag as the
// per-charge calls would, a truncated last step included); each
// evaluating pop counts a futile iteration; each ending pop reserves
// the probe's module. The clock and seq are not touched: the pops were
// counted as the clock passed them (passPops).
func (e *Engine) fastForwardSpin(m *epochMember, k int64) {
	s := m.c.spin
	if k <= m.done {
		return
	}
	from := m.pop(m.done)
	total := m.pop(k) - from
	step, boundary := s.ctx.SpinAccrue(total)
	if step < total && !boundary || step <= 0 {
		panic("sim: spin fast-forward accrual broke the SpinContext contract")
	}
	m.booked = from + step
	s.remaining = total - step
	s.boundary = boundary
	evals := m.evals(k) - m.evals(m.done)
	s.iters += evals
	lastIsEval := (k-1)%2 == m.evalParity
	s.inProbe = !lastIsEval
	if resvs := k - m.done - evals; resvs > 0 {
		r := k - 1
		if lastIsEval {
			r--
		}
		s.resvAt = m.pop(r)
		cell := s.spec.ProbeCell
		mach := cell.m
		mach.accesses[cell.node] += uint64(resvs)
		if svc := mach.cfg.ModuleService; svc > 0 {
			mach.queueDelay[cell.node] += Time(resvs) * s.lastDelay
			mach.moduleFree[cell.node] = s.resvAt + s.lastDelay + svc
		}
	}
	m.done = k
	e.applied++
	e.stats.MemberCommits++
	e.stats.BatchedIters += uint64(evals)
}
