// Package active provides non-blocking adaptive monitors: adaptive
// objects whose methods can execute asynchronously.
//
// The paper's adaptive objects always run a method synchronously under the
// object's lock: the caller acquires, executes, releases. Following the
// ActiveMonitor line of work (PAPERS.md), this package decouples method
// *submission* from method *execution*. A caller may Submit a method body
// and receive a virtual-time Future; a combiner drains the pending queue
// in batches, executing bodies back-to-back under a single lock
// acquisition. Two combiner variants exist, installable as the monitor's
// reconfigurable "combiner" method:
//
//   - flat: the submitter that wins a test-and-set election becomes the
//     combiner and drains the queue itself (flat combining). No extra
//     thread; the election word is the only added shared state.
//   - server: a dedicated server thread pinned to the monitor's home node
//     drains the queue, sleeping when it is empty; submitters wake it.
//
// Whether methods run synchronously at all is itself a mutable attribute
// ("exec-mode"), so a policy (core.ExecModeAdapt) can switch the monitor
// between direct locking and batched asynchronous execution per
// computation phase, off the built-in concurrent-callers sensor. Every
// decision flows through the usual core.Object feedback loop — visible in
// the trace (adapt-sample / reconfig events) and the core.Ledger.
//
// # Why batching wins (and when it does not)
//
// Under the simulator's cost model a contended synchronous handoff pays
// Wakeup (45µs, charged to the releaser) plus ContextSwitch (35µs) per
// method, serialized on the lock. A combiner executes the whole backlog
// under one acquisition — queued methods complete at body-execution
// speed, so tail (p99) method-completion latency collapses under high
// contention. With few callers or long method bodies the extra
// submit/future bookkeeping is pure overhead and synchronous locking
// stays ahead; see EXPERIMENTS.md for both sides measured.
//
// # Simulator charging
//
// Every operation charges virtual time exactly like the lock family:
// instruction steps via Thread.Compute (constants below, in the spirit of
// the lock costs), memory references to the monitor's home node via the
// machine's access-cost model, and atomic election probes at atomic cost.
// Queue mutations themselves are plain Go between charge points, which
// the engine's cooperative scheduling makes atomic (see DESIGN.md
// "Asynchronous execution legality"). Profiler attribution uses three new
// frames: "submit:<name>" (enqueue + election attempt), "combine:<name>"
// (batch dispatch), and "future:<name>" (a waiter blocked on its future).
package active

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Attribute and method names of the active monitor's adaptation surface.
const (
	// AttrExecMode selects the execution mode: ExecSync (methods run
	// synchronously under the lock) or ExecAsync (methods are submitted
	// and a combiner executes them). Mutable, so a policy can switch it.
	AttrExecMode = "exec-mode"
	// AttrBatchLimit bounds how many pending methods one combining pass
	// executes under a single lock acquisition. Mutable.
	AttrBatchLimit = "batch-limit"

	// MethodCombiner is the reconfigurable combiner method; its variants
	// are CombinerFlat and CombinerServer.
	MethodCombiner = "combiner"
	// CombinerFlat elects a submitter as combiner (flat combining).
	CombinerFlat = "flat"
	// CombinerServer uses a dedicated server thread as combiner.
	CombinerServer = "server"

	// SensorConcurrent is the monitor's contention sensor: the number of
	// method invocations in flight (submitted or executing, including the
	// prober's own) when an Invoke enters. It is the signal
	// core.ExecModeAdapt switches execution mode on.
	SensorConcurrent = "no-of-concurrent-methods"
)

// Execution-mode attribute values.
const (
	ExecSync  int64 = 0
	ExecAsync int64 = 1
)

// Instruction-step charges of the asynchronous path, calibrated in the
// same spirit as the lock costs: a submit is an enqueue plus an election
// probe's call overhead; a combiner pays a small dispatch cost per method;
// future operations are a flag read plus bookkeeping.
const (
	submitSteps          = 46
	combineDispatchSteps = 12
	futureWaitSteps      = 14
	futurePollSteps      = 6
	serverWakeSteps      = 8
)

// Config configures a Monitor.
type Config struct {
	// Node is the home node of the monitor's state (queue, election word,
	// attributes); all memory charges go there.
	Node int
	// Name names the monitor in traces, frames, and the ledger.
	Name string
	// Lock, when non-nil, is the mutual-exclusion lock methods run under
	// (e.g. an existing qlock). When nil, a lock of LockKind is built on
	// Node.
	Lock locks.Lock
	// LockKind picks the lock to build when Lock is nil (default
	// locks.KindSpin).
	LockKind locks.Kind
	// ExecMode is the initial exec-mode attribute (ExecSync or ExecAsync).
	ExecMode int64
	// Combiner is the initially installed combiner variant (default
	// CombinerFlat).
	Combiner string
	// BatchLimit is the initial batch-limit attribute (default 8).
	BatchLimit int64
	// SensorEvery delivers every Nth probe of the concurrency sensor to
	// the feedback loop (default 4; same role as the adaptive lock's
	// sampling interval).
	SensorEvery int
}

// Stats aggregates a monitor's activity over a run.
type Stats struct {
	// SyncCalls counts Invokes that ran synchronously under the lock.
	SyncCalls uint64
	// Submits counts methods submitted asynchronously.
	Submits uint64
	// Executed counts submitted methods completed by a combiner.
	Executed uint64
	// Batches counts combining passes (lock acquisitions that drained at
	// least one method).
	Batches uint64
	// MaxBatch is the largest single batch.
	MaxBatch uint64
	// SelfCombines counts flat-combining elections won by submitters or
	// waiters; ServerBatches counts batches drained by the server thread.
	SelfCombines  uint64
	ServerBatches uint64
	// ServerWakeups counts times a submitter woke the sleeping server.
	ServerWakeups uint64
	// ModeReads counts exec-mode attribute reads (one per Invoke).
	ModeReads uint64
}

// Monitor is an adaptive monitor with a configurable execution mode. All
// methods must be called from inside simulated threads, except the Setup*
// helpers and accessors documented otherwise.
type Monitor struct {
	sys  *cthreads.System
	node int
	name string
	mu   locks.Lock
	obj  *core.Object

	// election is the flat-combining combiner election word (test-and-set
	// semantics: nonzero = a combiner is active).
	election *sim.Cell

	// pending is the submitted-but-not-yet-executed queue. It is plain Go
	// state mutated only between charge points (cooperatively atomic);
	// the memory traffic it stands for is charged explicitly around every
	// mutation.
	pending []*Future
	// inflight is the number of method invocations in flight (submitted
	// or executing synchronously), the concurrency sensor's value.
	inflight int64

	server         *cthreads.Thread
	serverSleeping bool
	serverStop     bool

	latency *metrics.Histogram
	stats   Stats

	frameSubmit  string
	frameCombine string
	frameFuture  string
}

// New builds an active monitor from cfg, defines its adaptation surface
// (attributes, combiner method, concurrency sensor), and wires its
// feedback loop into the system tracer and ledger.
func New(sys *cthreads.System, cfg Config) *Monitor {
	if cfg.Name == "" {
		cfg.Name = "monitor"
	}
	if cfg.Combiner == "" {
		cfg.Combiner = CombinerFlat
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = 8
	}
	if cfg.SensorEvery <= 0 {
		cfg.SensorEvery = 4
	}
	mu := cfg.Lock
	if mu == nil {
		kind := cfg.LockKind
		if kind == "" {
			kind = locks.KindSpin
		}
		mu = locks.MustNew(sys, kind, cfg.Node, cfg.Name+".mu")
	}
	m := &Monitor{
		sys:          sys,
		node:         cfg.Node,
		name:         cfg.Name,
		mu:           mu,
		election:     sys.Machine().NewCell(cfg.Node, cfg.Name+".election", 0),
		latency:      metrics.NewHistogram(cfg.Name + ".method-latency"),
		frameSubmit:  "submit:" + cfg.Name,
		frameCombine: "combine:" + cfg.Name,
		frameFuture:  "future:" + cfg.Name,
	}
	m.obj = core.NewObject(cfg.Name)
	m.obj.Attrs.Define(AttrExecMode, cfg.ExecMode, true)
	m.obj.Attrs.Define(AttrBatchLimit, cfg.BatchLimit, true)
	m.obj.Methods.Define(MethodCombiner, 1, CombinerFlat, CombinerServer)
	if cfg.Combiner != CombinerFlat {
		if _, err := m.obj.Methods.Install(MethodCombiner, cfg.Combiner); err != nil {
			panic(fmt.Sprintf("active: %v", err))
		}
	}
	m.obj.Monitor.AddSensor(SensorConcurrent, cfg.SensorEvery, func() int64 { return m.inflight + 1 })
	sys.WireObject(m.obj, cfg.Name)
	return m
}

// Object exposes the underlying adaptive object (attributes, combiner
// method, sensor, policy) for configuration and inspection.
func (m *Monitor) Object() *core.Object { return m.obj }

// Lock exposes the monitor's mutual-exclusion lock.
func (m *Monitor) Lock() locks.Lock { return m.mu }

// Name returns the monitor's name.
func (m *Monitor) Name() string { return m.name }

// Stats returns activity counters accumulated so far.
func (m *Monitor) Stats() Stats { return m.stats }

// Latency returns the method-completion latency histogram: Invoke entry
// (or Submit) to body completion, in virtual time, for both modes.
func (m *Monitor) Latency() *metrics.Histogram { return m.latency }

// chargeAccesses charges n memory references to the monitor's home node.
func (m *Monitor) chargeAccesses(t *cthreads.Thread, n int) {
	if n <= 0 {
		return
	}
	t.Advance(sim.Time(n) * m.sys.Machine().AccessCost(t.Node(), m.node))
}

// probe samples the concurrency sensor, charging the closely-coupled
// monitor's inline collection cost when the sample is delivered to the
// feedback loop (same cost shape as the adaptive lock's Unlock probe).
func (m *Monitor) probe(t *cthreads.Thread) {
	if _, ok := m.obj.Monitor.Probe(SensorConcurrent); ok {
		t.Compute(locks.MonitorSampleSteps)
		m.chargeAccesses(t, 2) // read the sensed state, write the attribute
	}
}

// Invoke runs body as one monitor method in the current execution mode:
// synchronously under the lock when exec-mode is ExecSync, or via
// Submit+Wait when ExecAsync. The concurrency sensor is probed at entry,
// so a monitor with an ExecModeAdapt policy switches mode under this
// call as contention changes.
func (m *Monitor) Invoke(t *cthreads.Thread, body func(*cthreads.Thread)) {
	m.probe(t)
	m.inflight++
	start := t.Now()
	mode := m.obj.Attrs.MustGet(AttrExecMode)
	m.stats.ModeReads++
	m.chargeAccesses(t, 1)
	if mode == ExecSync {
		m.mu.Lock(t)
		body(t)
		m.latency.Record(t.Now() - start)
		m.inflight--
		m.stats.SyncCalls++
		m.mu.Unlock(t)
		return
	}
	f := m.submit(t, body, start)
	f.Wait(t)
}

// Submit enqueues body for asynchronous execution and returns its future.
// In flat-combining mode the submitter attempts the combiner election and,
// if it wins, drains the queue before returning (so an uncontended Submit
// behaves like a slightly dearer synchronous call); in server mode it
// wakes the server thread if sleeping. The returned future's Wait/Poll
// completes the rendezvous. The inflight count it contributes is released
// when the method completes, regardless of whether anyone waits.
func (m *Monitor) Submit(t *cthreads.Thread, body func(*cthreads.Thread)) *Future {
	m.inflight++
	return m.submit(t, body, t.Now())
}

// submit is the common enqueue path; start is the latency-measurement
// origin (Invoke entry, or Submit time).
func (m *Monitor) submit(t *cthreads.Thread, body func(*cthreads.Thread), start sim.Time) *Future {
	if p := t.Prof(); p != nil {
		p.Push(t.Now(), m.frameSubmit)
	}
	t.Compute(submitSteps)
	m.chargeAccesses(t, locks.QueueOpAccesses)
	f := &Future{m: m, body: body, submitted: start}
	m.pending = append(m.pending, f)
	depth := int64(len(m.pending))
	variant, err := m.obj.Methods.Installed(MethodCombiner)
	if err != nil {
		panic(fmt.Sprintf("active: %v", err))
	}
	f.server = variant == CombinerServer
	m.stats.Submits++
	if f.server {
		m.ensureServer()
		wake := m.serverSleeping
		if wake {
			m.serverSleeping = false
		}
		m.traceSubmit(t, depth, false)
		if wake {
			m.stats.ServerWakeups++
			t.Compute(serverWakeSteps)
			t.Wake(m.server)
		}
		if p := t.Prof(); p != nil {
			p.Pop(t.Now(), m.frameSubmit)
		}
		return f
	}
	// Flat combining: try the election. Losing is fine — the current
	// combiner is obligated to re-check the queue after releasing the
	// election word, so this future cannot be stranded.
	elected := m.election.AtomicOr(t, 1) == 0
	m.traceSubmit(t, depth, elected)
	if elected {
		m.combineElected(t)
	}
	if p := t.Prof(); p != nil {
		p.Pop(t.Now(), m.frameSubmit)
	}
	return f
}

// combineElected drains the pending queue while holding the election,
// then releases it and re-checks: a submitter that enqueued during the
// release window and lost its own election would otherwise be stranded.
// Called with the election word owned by t.
func (m *Monitor) combineElected(t *cthreads.Thread) {
	for {
		m.stats.SelfCombines++
		m.drain(t, false)
		m.election.Store(t, 0)
		m.chargeAccesses(t, 1) // re-inspect the queue after release
		if len(m.pending) == 0 {
			return
		}
		if m.election.AtomicOr(t, 1) != 0 {
			// Another combiner took over; the queue is their problem.
			return
		}
	}
}

// drain executes pending methods in batches until the queue is observed
// empty. Each batch acquires the monitor lock once, executes up to
// batch-limit bodies back-to-back, and releases — the combining that buys
// the tail-latency win. Caller must be the active combiner (election
// holder or server thread).
func (m *Monitor) drain(t *cthreads.Thread, isServer bool) {
	for {
		m.chargeAccesses(t, 1) // inspect the queue head
		if len(m.pending) == 0 {
			return
		}
		limit := m.obj.Attrs.MustGet(AttrBatchLimit)
		m.chargeAccesses(t, 1)
		if limit <= 0 {
			limit = 1
		}
		m.mu.Lock(t)
		if p := t.Prof(); p != nil {
			p.Push(t.Now(), m.frameCombine)
		}
		var n int64
		for n < limit && len(m.pending) > 0 {
			f := m.pending[0]
			m.pending = m.pending[1:]
			m.chargeAccesses(t, locks.QueueOpAccesses)
			t.Compute(combineDispatchSteps)
			f.body(t)
			// Completion: mark done, record latency, and hand off to a
			// registered waiter — all in one cooperatively-atomic step
			// with the waiter's own check-then-block, so no wakeup is
			// lost (DESIGN.md "Asynchronous execution legality").
			f.done = true
			m.latency.Record(t.Now() - f.submitted)
			m.inflight--
			m.stats.Executed++
			n++
			if w := f.waiter; w != nil {
				f.waiter = nil
				t.Wake(w)
			}
		}
		if p := t.Prof(); p != nil {
			p.Pop(t.Now(), m.frameCombine)
		}
		m.stats.Batches++
		if isServer {
			m.stats.ServerBatches++
		}
		if uint64(n) > m.stats.MaxBatch {
			m.stats.MaxBatch = uint64(n)
		}
		m.traceCombine(t, n, isServer)
		m.mu.Unlock(t)
	}
}

// ensureServer forks the dedicated server thread on the monitor's home
// node the first time the server combiner is used.
func (m *Monitor) ensureServer() {
	if m.server != nil {
		return
	}
	m.server = m.sys.Fork(m.node, m.name+".server", m.serverLoop)
}

// serverLoop is the dedicated combiner: drain when work is pending, sleep
// when the queue is empty, exit when Shutdown is requested.
func (m *Monitor) serverLoop(t *cthreads.Thread) {
	for {
		if m.serverStop {
			return
		}
		if len(m.pending) == 0 {
			// Sleep until a submitter wakes us. The flag set and the
			// block are one cooperatively-atomic step, paired with the
			// submitter's flag-clear-then-wake.
			m.serverSleeping = true
			t.Block()
			t.Compute(locks.PostWakeSteps)
			continue
		}
		m.drain(t, true)
	}
}

// Shutdown stops the server thread (if one was ever forked) and joins it.
// Call from the owning thread once no more submissions will arrive; safe
// to call when the server combiner was never used.
func (m *Monitor) Shutdown(t *cthreads.Thread) {
	if m.server == nil {
		return
	}
	m.serverStop = true
	if m.serverSleeping {
		m.serverSleeping = false
		t.Wake(m.server)
	}
	t.Join(m.server)
}

// traceSubmit records one mon-submit event.
func (m *Monitor) traceSubmit(t *cthreads.Thread, depth int64, selfCombine bool) {
	tr := m.sys.Tracer()
	if tr == nil {
		return
	}
	var b int64
	if selfCombine {
		b = 1
	}
	tr.Emit(trace.Event{At: t.Now(), Kind: trace.KindSubmit,
		Proc: int32(t.Node()), Thread: int32(t.ID()), Name: m.name, A: depth, B: b})
}

// traceCombine records one mon-combine event.
func (m *Monitor) traceCombine(t *cthreads.Thread, batch int64, isServer bool) {
	tr := m.sys.Tracer()
	if tr == nil {
		return
	}
	var b int64
	if isServer {
		b = 1
	}
	tr.Emit(trace.Event{At: t.Now(), Kind: trace.KindCombine,
		Proc: int32(t.Node()), Thread: int32(t.ID()), Name: m.name, A: batch, B: b})
}
