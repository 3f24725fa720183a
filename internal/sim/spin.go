package sim

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// This file implements batched busy-wait probes: the fast path that
// simulates a spin loop's repeated futile iterations without a
// coroutine switch per charge and — between two harmful occurrences, a
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
//     that finds the word held sets no new bits), so re-running it while
//     only futile spin charges execute keeps failing with no side effect.
//   - Probe performs at most the one memory reference described by
//     ProbeCell/ProbeAtomic; it reads (and conditionally writes) state
//     via Peek/Poke — the charge has already been applied.
//   - Probe and PauseCost read no clock, busy time or module counter —
//     the only state futile spin charges change — so PauseCost is
//     constant while only futile spin charges run.
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

// noBatchDefault is the process-wide default for new engines (false =
// batching on); cmd binaries set it from -no-spin-batch before any
// simulation starts.
var noBatchDefault atomic.Bool

// SetDefaultBatchedSpins sets whether newly created engines batch spin
// probes. Existing engines are unaffected; SetBatchedSpins overrides
// per engine.
func SetDefaultBatchedSpins(on bool) { noBatchDefault.Store(!on) }

// SetBatchedSpins enables (the default) or disables the batched-spin
// fast path on this engine. Both settings produce byte-identical
// simulated histories — the differential spin suites prove it — so the
// only reason to turn it off is to exercise or measure the slow path.
// Tracer-installed engines take the slow path regardless, keeping the
// schedule/event stream complete.
func (e *Engine) SetBatchedSpins(on bool) { e.noBatch = !on }

// BatchedSpins reports whether the batched-spin fast path is enabled.
func (e *Engine) BatchedSpins() bool { return !e.noBatch }

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

	// Steady-state detection for spin epochs: an iteration is clean when
	// no harmful occurrence (Engine.epoch moving) intervened from its
	// probe reservation through its pause; steady means the last two
	// iterations were clean with equal (module delay, pause), which by
	// the busy-wait contract fixes every further iteration until the
	// next harmful occurrence (see Engine.fastForwardSpin).
	epoch                uint64 // Engine.epoch at this iteration's probe reservation
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
// whole bursts of futile iterations are fast-forwarded arithmetically
// (see Engine.fastForwardSpin). With batching disabled, or with a tracer
// installed, the loop is open-coded per iteration instead; both paths
// produce byte-identical simulated histories.
func (c *Coro) SpinUntil(ctx SpinContext, spec *SpinSpec) (iters int64, ok bool) {
	e := c.eng
	if e.noBatch || e.tracer != nil {
		return c.spinSlow(ctx, spec)
	}
	s := spinState{c: c, ctx: ctx, spec: *spec, pc: spinProbeStart}
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
// unchanged. A spin-epoch member's continuation waits in the spin lane
// instead of the heap (Engine.spinQueue); its key is the same.
func (e *Engine) runSpin(s *spinState) bool {
	for {
		switch s.pc {
		case spinProbeStart:
			s.epoch, s.resvAt = e.epoch, e.now
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
			if e.noInline || !e.canInline(when) {
				e.schedule(e.spinQueue(s), when, nil, s.c)
				s.wait = spinWaitEvent
				return false
			}
			e.advanceInline(when)

		case spinAfterSleep:
			s.wait = spinWaitNone
			s.pc = spinAfterBoundary
			if s.boundary {
				e.endSpinEpoch()
				if s.ctx.SpinBoundary() {
					// Preempted mid-charge: the processor's next dispatch
					// of this context resumes the emulation via Unpark.
					s.wait = spinWaitDispatch
					s.c.parked = true
					return false
				}
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
			clean := s.epoch == e.epoch
			s.steady = clean && s.haveLast && s.lastDelay == s.curDelay && s.lastPause == s.curPause
			s.haveLast = clean
			s.lastDelay, s.lastPause = s.curDelay, s.curPause
			s.pc = spinProbeStart
			if s.steady && e.fastForwardSpin(s) && s.wait == spinWaitEvent {
				return false
			}
		}
	}
}

// endSpinEpoch records a harmful occurrence — a coro dispatch, a
// callback (including a delivered cross-shard message), a slice
// boundary, or the start of a run, after which anything may have
// changed — and ends the current spin epoch: the epoch counter moves,
// so every iteration in flight is unclean, and the lane's continuations
// move into the main heap with their keys unchanged, where they fire
// one charge at a time until their spinners prove steady again. A probe
// that succeeds and a MaxIters exhaustion end the epoch through the
// dispatch that resumes the spinner's body. With an empty lane this is
// one increment and one check.
func (e *Engine) endSpinEpoch() {
	e.epoch++
	if len(e.lane.a) > 0 {
		e.flushLane()
	}
}

// flushLane moves every lane continuation into the main heap.
func (e *Engine) flushLane() {
	for i := range e.lane.a {
		ev := &e.lane.a[i]
		e.queue.push(ev.when, ev.at, ev.seq, nil, ev.coro)
		ev.coro = nil
	}
	e.lane.a = e.lane.a[:0]
}

// spinQueue picks the queue s's next continuation waits in: the spin
// lane when s is a member, the main heap otherwise.
func (e *Engine) spinQueue(s *spinState) *eventQueue {
	if e.isEpochMember(s) {
		return &e.lane
	}
	return &e.queue
}

// isEpochMember reports whether s, about to wait for a charge completion,
// is a spin-epoch member: batching possible at all, the last two
// iterations clean with equal profiles, the current one clean so far
// and matching them, no slice boundary pending, every charge of
// positive length, and — when the probed module models contention —
// the module's recurrence at its fixed point with s the only member
// probing it.
func (e *Engine) isEpochMember(s *spinState) bool {
	if e.noInline || e.tracer != nil || e.stopped {
		return false
	}
	if !s.steady || s.boundary || s.epoch != e.epoch || s.curDelay != s.lastDelay ||
		!s.inProbe && s.curPause != s.lastPause || s.lastPause <= 0 ||
		s.probeBase+s.lastDelay+s.lastPause > maxSpinWindow {
		return false
	}
	cell := s.spec.ProbeCell
	if cell == nil {
		return true
	}
	if s.probeBase+s.lastDelay <= 0 || !moduleSteady(s) {
		return false
	}
	if cell.m.cfg.ModuleService > 0 {
		for i := range e.lane.a {
			o := e.lane.a[i].coro.spin.spec.ProbeCell
			if o != nil && o.m == cell.m && o.node == cell.node {
				return false
			}
		}
	}
	return true
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
	if cell == nil {
		return true
	}
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

// maxSpinWindow bounds the virtual time one commit spans, so the time
// and seq arithmetic below can never overflow; a longer epoch simply
// commits again.
const maxSpinWindow = Time(1) << 40

// epochMember is one member's part in a spin-epoch commit. A steady
// member's futile charges complete ("pop") at fixed offsets from its
// pending completion w: pop k fires at w + ⌊k/2⌋·per + (k mod 2)·g1.
// A pop either evaluates the probe (and schedules the pause) or ends an
// iteration (and reserves and schedules the next probe charge); with no
// probe cell every pop does both.
type epochMember struct {
	c   *Coro
	run bool // the spinner calling the commit; its state is the caller's
	// w is pop 0's time; at/seq are pop 0's event key. The running
	// spinner's pop 0 is the one executing, so it orders first (at -1).
	w   Time
	at  Time
	seq uint64
	// g1 and per place the pops; evalParity is the parity of the pops
	// that evaluate the probe, -1 when every pop does.
	g1, per    Time
	evalParity int64
	// n is the number of pops the commit takes; fw/fa/fseq are the key
	// of the continuation the last of them schedules.
	n      int64
	fw, fa Time
	fseq   uint64
}

// state returns the member's spin state: run's for the running spinner,
// whose state is not (yet) the coro's.
func (m *epochMember) state(run *spinState) *spinState {
	if m.run {
		return run
	}
	return m.c.spin
}

// pop returns the time of pop k.
func (m *epochMember) pop(k int64) Time {
	return m.w + Time(k/2)*m.per + Time(k%2)*m.g1
}

// evals counts the probe evaluations among the first n pops.
func (m *epochMember) evals(n int64) int64 {
	switch m.evalParity {
	case 0:
		return (n + 1) / 2
	case 1:
		return n / 2
	}
	return n
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

// harmAt returns the first pop that is a harmful occurrence of the
// member's own — the slice boundary after budget b, or the probe
// evaluation that exhausts MaxIters with left futile iterations to go
// (left < 0: unbounded) — or MaxTime when there is none.
func (m *epochMember) harmAt(b Time, left int64) Time {
	end := MaxTime
	if b != MaxTime && b <= MaxTime-m.w {
		end = m.w + b
	}
	if left < 0 {
		return end
	}
	// The exhausting evaluation is the (left+1)-th: pop left with no
	// probe cell (every pop evaluates), else pop 2·left + evalParity.
	t, period := m.w, m.per
	switch m.evalParity {
	case -1:
		period = m.g1
	case 1:
		t += m.g1
	}
	if left <= int64((MaxTime-t)/period) {
		if t += Time(left) * period; t < end {
			end = t
		}
	}
	return end
}

// popBefore reports whether x's pop a fires before y's pop b, given that
// both fire at the same instant. The per-charge engine orders them by
// the instants their events were scheduled at — the pops before them —
// and equal instants by the order of those pops, so the walk goes back
// pop by pop until the chains part or one reaches its pending event,
// whose real key decides (every committed pop's seq exceeds it). Two
// equal gaps in a row mean the chains coincide all the way back, since
// every chain's gaps repeat with period two.
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

// compareFinal orders committed members' continuations by the key the
// per-charge engine would have given them: (when, at), then the order of
// the pops that scheduled them.
func compareFinal(x, y epochMember) int {
	switch {
	case x.c == y.c:
		return 0
	case x.fw != y.fw:
		return cmp.Compare(x.fw, y.fw)
	case x.fa != y.fa:
		return cmp.Compare(x.fa, y.fa)
	case popBefore(&x, x.n-1, &y, y.n-1):
		return -1
	}
	return 1
}

// fastForwardSpin commits one spin epoch: it advances every spin-epoch
// member — the lane's, plus run, the spinner whose iteration just ended
// in a steady state (nil when the engine loop commits) — together, in
// closed form, up to the next harmful occurrence. It reports whether it
// changed the queues: advanced anything, or moved a member to the heap.
//
// Legality. Between two harmful occurrences (endSpinEpoch) only futile
// spin charges fire, and they change nothing but the clock and seq,
// busy/slice accrual, and module counters. By the busy-wait contract
// each member's probe therefore stays futile and its (delay, pause)
// fixed, so its charges complete at the fixed offsets epochMember.pop
// describes. The commit takes every member pop at or before the horizon
// H, the earliest of
//
//   - the next non-member event, strictly — at that instant the event
//     may fire first and change the probed state;
//   - the RunFor/window limit, inclusive;
//   - each member's own harmful pop (its slice boundary or MaxIters
//     exhaustion), strictly;
//
// and does O(members) work: per member its iterations, one bulk
// SpinAccrue (which leaves the slice and the boundary flag as the
// per-charge calls would, a truncated last step included), its module's
// accesses, queue delay and reservation, and one
// Attribution.SpinFastForward. seq advances by exactly the number of
// pops (each schedules one charge), and now moves to the last pop. Each
// member's re-queued continuation gets its exact (when, at); its seq
// lies in (seq₀, seq₀ + pops], assigned in compareFinal order, so it
// orders after every event already queued, before every event scheduled
// later, and among the members exactly as the per-charge engine would
// order it — the event seq is read only by event.less.
//
// When run advanced, it is left either inline — the clock at its next
// completion and run.pc at spinAfterSleep — or suspended with its
// continuation queued (run.wait == spinWaitEvent).
func (e *Engine) fastForwardSpin(run *spinState) bool {
	if e.noInline || e.tracer != nil || e.stopped {
		return false
	}
	first := e.now
	if run == nil {
		if e.lane.len() == 0 {
			return false
		}
		first = e.lane.a[0].when
	}
	h, bounded := MaxTime, false
	if e.limited {
		h, bounded = e.limit, true
	}
	if e.queue.len() > 0 && e.queue.a[0].when-1 < h {
		h, bounded = e.queue.a[0].when-1, true
	}
	if h < first || run != nil && !e.isEpochMember(run) {
		return false
	}

	// Gather the members. A lane member whose module someone else has
	// reserved since it joined leaves for the main heap, where it bounds
	// the horizon like any other event.
	ms := e.members[:0]
	rebuild := false
	for i := range e.lane.a {
		ev := &e.lane.a[i]
		if !moduleSteady(ev.coro.spin) {
			e.queue.push(ev.when, ev.at, ev.seq, nil, ev.coro)
			rebuild = true
			continue
		}
		ms = append(ms, epochMember{c: ev.coro, w: ev.when, at: ev.at, seq: ev.seq})
	}
	if run != nil {
		ms = append(ms, epochMember{c: run.c, run: true, w: e.now, at: -1})
	}
	if rebuild && e.queue.a[0].when-1 < h {
		h, bounded = e.queue.a[0].when-1, true
	}
	for i := range ms {
		m := &ms[i]
		s := m.state(run)
		lp, p := s.probeBase+s.lastDelay, s.lastPause
		switch {
		case s.spec.ProbeCell == nil:
			m.g1, m.per, m.evalParity = p, 2*p, -1
		case m.run || !s.inProbe:
			m.g1, m.per, m.evalParity = lp, lp+p, 1
		default:
			m.g1, m.per, m.evalParity = p, lp+p, 0
		}
		left := int64(-1)
		if max := s.spec.MaxIters; max >= 0 {
			left = max - s.iters
		}
		if end := m.harmAt(s.ctx.SpinBudget(), left); end != MaxTime {
			if end-1 < h {
				h = end - 1
			}
			bounded = true
		}
	}
	if !bounded {
		// Nothing bounds the epoch: the per-charge loop would spin
		// forever, so must we (one charge at a time, keeping the hang
		// observable).
		h = first - 1
	} else if h-e.now > maxSpinWindow {
		h = e.now + maxSpinWindow
	}

	// Count each member's pops and apply them.
	var pops int64
	adv := 0
	for i := range ms {
		m := &ms[i]
		if m.n = m.popsBy(h); m.n > 0 {
			pops += m.n
			ms[adv], ms[i] = ms[i], ms[adv]
			adv++
		}
	}
	if adv == 0 {
		if rebuild {
			e.refillLane(ms)
		}
		clear(ms)
		e.members = ms[:0]
		return rebuild
	}
	last := e.now
	for i := 0; i < adv; i++ {
		m := &ms[i]
		s := m.state(run)
		m.fa = m.pop(m.n - 1)
		total := m.pop(m.n) - m.w
		step, boundary := s.ctx.SpinAccrue(total)
		if step < total && !boundary || step <= 0 {
			panic("sim: spin fast-forward accrual broke the SpinContext contract")
		}
		m.fw = m.w + step
		s.remaining = total - step
		s.boundary = boundary
		evals := m.evals(m.n)
		s.iters += evals
		lastIsEval := m.evalParity < 0 || (m.n-1)%2 == m.evalParity
		s.inProbe = !lastIsEval
		s.pc = spinAfterSleep
		s.wait = spinWaitEvent
		if cell := s.spec.ProbeCell; cell != nil {
			if resvs := m.n - evals; resvs > 0 {
				k := m.n - 1
				if lastIsEval {
					k--
				}
				s.resvAt = m.pop(k)
				mach := cell.m
				mach.accesses[cell.node] += uint64(resvs)
				if svc := mach.cfg.ModuleService; svc > 0 {
					mach.queueDelay[cell.node] += Time(resvs) * s.lastDelay
					mach.moduleFree[cell.node] = s.resvAt + s.lastDelay + svc
				}
			}
		}
		if m.fa > last {
			last = m.fa
		}
		e.spinFastForwards++
		e.spinBatchedIters += uint64(evals)
	}
	seq0 := e.seq
	e.seq += uint64(pops)
	e.now = last
	if adv > 1 {
		e.spinSharedCommits++
		slices.SortFunc(ms[:adv], compareFinal)
	}
	var rm epochMember
	for i := 0; i < adv; i++ {
		ms[i].fseq = seq0 + uint64(pops-int64(adv)+int64(i)+1)
		if ms[i].run {
			rm = ms[i]
		}
		if e.attr != nil {
			e.attr.SpinFastForward(last, ms[i].evals(ms[i].n))
		}
	}
	e.refillLane(ms)
	clear(ms)
	e.members = ms[:0]
	if run != nil {
		// run is always among the advanced: its pop 0 is at now ≤ h.
		if e.canInline(rm.fw) {
			e.now = rm.fw
			run.wait = spinWaitNone
		} else {
			q := &e.lane
			if run.boundary {
				q = &e.queue
			}
			q.push(rm.fw, rm.fa, rm.fseq, nil, run.c)
		}
	}
	return true
}

// refillLane rebuilds the lane from a commit's members, the running
// spinner excepted: each keeps its pending key or takes its committed
// continuation's, and one left on a slice boundary waits in the main
// heap instead, where it bounds the next horizon.
func (e *Engine) refillLane(ms []epochMember) {
	q := &e.lane
	clear(q.a)
	q.a = q.a[:0]
	for i := range ms {
		m := &ms[i]
		switch {
		case m.run:
		case m.n == 0:
			q.push(m.w, m.at, m.seq, nil, m.c)
		case m.c.spin.boundary:
			e.queue.push(m.fw, m.fa, m.fseq, nil, m.c)
		default:
			q.push(m.fw, m.fa, m.fseq, nil, m.c)
		}
	}
}
