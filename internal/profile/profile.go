// Package profile is the exact virtual-time attribution profiler: every
// tick of simulated time is charged to a (thread, object/lock, state)
// triple. Because the engine is deterministic there is no sampling and no
// error bar — the attribution is precise, conserved (per-thread totals
// equal the virtual time the thread existed), and byte-reproducible for a
// fixed seed, including across the engine's reference modes (inline
// wakeups off, spin batching off) and across sweep parallelism.
//
// Attribution model. Each thread carries a ThreadProf holding a base
// state (queued, running, blocked, done) and a stack of frames pushed by
// the instrumented layers: lock methods ("Lock:l", "Unlock:l"), critical
// sections ("cs:l"), sleeps inside a lock ("wait:l"), spin loops
// ("spin:l", including batched fast-forwarded spins — the fast-forward
// commits the same virtual duration the iterations would have cost, so
// the spin frame absorbs it exactly), barrier polls ("poll:b"), the
// inline adaptation step ("adapt:l"), and the active monitor's
// asynchronous execution path ("submit:m" around enqueue and combiner
// election, "combine:m" around a combiner's batch dispatch, "future:m"
// while a caller is blocked on its future). Time is charged on every
// transition: when the base or the frame stack changes at virtual time t,
// the interval since the previous transition is added to the accumulator
// keyed by the outgoing (thread;base;frames) string. Like the tracer,
// the profiler does not force the engine's slow paths: batching and
// inline wakeups stay on, which is what makes the conservation test a
// proof that attribution survives the fast-forward arithmetic.
//
// The zero-overhead contract matches internal/trace: a nil *Profiler and
// a nil *ThreadProf are valid disabled instruments, every method is
// nil-safe, and the hot paths guard each emit site with a nil check and
// no other work (BenchmarkProfileDisabled* pin this at zero allocations).
//
// Exporters (see export.go): WriteFolded emits Brendan-Gregg folded
// stacks for flamegraph tooling, WriteTable a fixed-width attribution
// table, WriteHistograms per-lock wait/hold digests with p50/p99/p999.
// Engine-level dispatch and fast-forward counts are mode-dependent
// diagnostics and are deliberately excluded from all three; they are the
// engine's own sim.Stats, which cthreads.System.Run adds at the end of
// each profiled run (AddEngineStats). A caller that wants a lock's wait
// distribution attaches a Profiler and reads WaitHistogram.
package profile

import (
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Base states partitioning a thread's timeline. Exactly one is current at
// any virtual instant between registration and the final flush.
const (
	BaseQueued  = "queued"  // on a processor's ready queue
	BaseRunning = "running" // dispatched on a processor
	BaseBlocked = "blocked" // suspended in Block/BlockTimeout
	BaseDone    = "done"    // thread function returned
)

// Profiler collects per-thread attributions and per-lock wait/hold
// histograms. The nil *Profiler is a valid disabled profiler. A single
// Profiler may span several Systems run back to back (sweeps force serial
// execution while profiling); same-named threads merge by attribution key
// in the exporters.
type Profiler struct {
	threads []*ThreadProf

	waitHists map[string]*metrics.Histogram
	holdHists map[string]*metrics.Histogram

	// Mode-dependent diagnostics summed from the engine's sim.Stats at
	// the end of each profiled run (AddEngineStats). They count
	// mechanism (dispatches, fast-forward commits), not
	// virtual time, so they differ across reference modes and are never
	// part of the byte-reproducible exports.
	dispatches   int64
	fastForwards int64
	batchedIters int64
}

// New returns an enabled profiler.
func New() *Profiler {
	return &Profiler{
		waitHists: map[string]*metrics.Histogram{},
		holdHists: map[string]*metrics.Histogram{},
	}
}

// Register creates the attribution record for one thread, starting its
// timeline (base queued) at now. Returns nil on a nil profiler.
func (p *Profiler) Register(name string, now sim.Time) *ThreadProf {
	if p == nil {
		return nil
	}
	tp := &ThreadProf{
		name:       name,
		base:       BaseQueued,
		registered: now,
		last:       now,
		keyDirty:   true, // first charge builds "name;queued"
		acc:        map[string]sim.Time{},
	}
	p.threads = append(p.threads, tp)
	return tp
}

// Threads returns the registered thread records in registration order.
func (p *Profiler) Threads() []*ThreadProf {
	if p == nil {
		return nil
	}
	return p.threads
}

// RecordWait adds one request-to-grant wait sample for a lock or object.
func (p *Profiler) RecordWait(name string, d sim.Time) {
	if p == nil {
		return
	}
	h := p.waitHists[name]
	if h == nil {
		h = metrics.NewHistogram(name)
		p.waitHists[name] = h
	}
	h.Record(d)
}

// RecordHold adds one acquire-to-release hold sample for a lock or object.
func (p *Profiler) RecordHold(name string, d sim.Time) {
	if p == nil {
		return
	}
	h := p.holdHists[name]
	if h == nil {
		h = metrics.NewHistogram(name)
		p.holdHists[name] = h
	}
	h.Record(d)
}

// WaitHistogram returns the wait-time histogram for name (nil if none).
func (p *Profiler) WaitHistogram(name string) *metrics.Histogram {
	if p == nil {
		return nil
	}
	return p.waitHists[name]
}

// HoldHistogram returns the hold-time histogram for name (nil if none).
func (p *Profiler) HoldHistogram(name string) *metrics.Histogram {
	if p == nil {
		return nil
	}
	return p.holdHists[name]
}

// AddEngineStats adds one run's engine mechanism counters: its
// dispatches (real coroutine handoffs — inline self-wakeups don't
// dispatch) and its batched-spin commits with the iterations they
// skipped. The counts are mode-dependent and diagnostic only — a spin's
// virtual duration is attributed through the thread's spin frame whether
// or not it was batched.
func (p *Profiler) AddEngineStats(st sim.Stats) {
	if p != nil {
		p.dispatches += int64(st.Dispatches)
		p.fastForwards += int64(st.MemberCommits)
		p.batchedIters += int64(st.BatchedIters)
	}
}

// Dispatches reports the engine dispatch count (mode-dependent).
func (p *Profiler) Dispatches() int64 {
	if p == nil {
		return 0
	}
	return p.dispatches
}

// FastForwards reports committed spin fast-forwards (mode-dependent).
func (p *Profiler) FastForwards() int64 {
	if p == nil {
		return 0
	}
	return p.fastForwards
}

// BatchedIters reports total fast-forwarded spin iterations
// (mode-dependent).
func (p *Profiler) BatchedIters() int64 {
	if p == nil {
		return 0
	}
	return p.batchedIters
}

// ThreadProf is one thread's attribution record. The nil *ThreadProf is a
// valid disabled record (threads of an unprofiled system hold nil).
type ThreadProf struct {
	name       string
	base       string
	frames     []string
	registered sim.Time
	last       sim.Time
	total      sim.Time

	key      string
	keyDirty bool

	acc map[string]sim.Time
}

// Name returns the thread name the record was registered under.
func (tp *ThreadProf) Name() string {
	if tp == nil {
		return ""
	}
	return tp.name
}

// Registered returns the virtual time the thread's timeline started.
func (tp *ThreadProf) Registered() sim.Time {
	if tp == nil {
		return 0
	}
	return tp.registered
}

// Total returns the virtual time charged so far. After Flush(end) it
// equals end − Registered() exactly — the conservation invariant.
func (tp *ThreadProf) Total() sim.Time {
	if tp == nil {
		return 0
	}
	return tp.total
}

// charge attributes the interval since the last transition to the
// current (base, frames) key and moves the transition point to now.
func (tp *ThreadProf) charge(now sim.Time) {
	if d := now - tp.last; d > 0 {
		if tp.keyDirty {
			tp.rebuildKey()
		}
		tp.acc[tp.key] += d
		tp.total += d
	}
	tp.last = now
}

func (tp *ThreadProf) rebuildKey() {
	var b strings.Builder
	n := len(tp.name) + 1 + len(tp.base)
	for _, f := range tp.frames {
		n += 1 + len(f)
	}
	b.Grow(n)
	b.WriteString(tp.name)
	b.WriteByte(';')
	b.WriteString(tp.base)
	for _, f := range tp.frames {
		b.WriteByte(';')
		b.WriteString(f)
	}
	tp.key = b.String()
	tp.keyDirty = false
}

// SetBase charges the elapsed interval and switches the base state.
func (tp *ThreadProf) SetBase(now sim.Time, base string) {
	if tp == nil {
		return
	}
	tp.charge(now)
	if tp.base != base {
		tp.base = base
		tp.keyDirty = true
	}
}

// Push charges the elapsed interval and pushes frame onto the stack.
func (tp *ThreadProf) Push(now sim.Time, frame string) {
	if tp == nil {
		return
	}
	tp.charge(now)
	tp.frames = append(tp.frames, frame)
	tp.keyDirty = true
}

// Pop charges the elapsed interval and removes the topmost occurrence of
// frame from the stack (a no-op if absent, so instrumented paths that
// exit through several routes stay safe).
func (tp *ThreadProf) Pop(now sim.Time, frame string) {
	if tp == nil {
		return
	}
	tp.charge(now)
	for i := len(tp.frames) - 1; i >= 0; i-- {
		if tp.frames[i] == frame {
			tp.frames = append(tp.frames[:i], tp.frames[i+1:]...)
			tp.keyDirty = true
			return
		}
	}
}

// Flush charges the tail interval up to end (the owning system calls it
// for its own threads when its engine run completes; a later run may
// continue charging from there).
func (tp *ThreadProf) Flush(end sim.Time) {
	if tp == nil {
		return
	}
	tp.charge(end)
}
