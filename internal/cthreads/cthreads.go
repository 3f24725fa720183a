// Package cthreads is a user-level thread package in the style of the
// multiprocessor Cthreads library [Muk91] the paper builds on, running on
// the simulated NUMA machine of internal/sim.
//
// Threads are forked onto a specific processor and stay there (the paper
// pins its TSP searchers one per processor; its Figure 1 workloads run
// several threads per processor, still pinned). Each processor runs one
// thread at a time from a FIFO ready queue; switching threads costs
// Config.ContextSwitch, and waking a blocked thread costs the waker
// Config.Wakeup — the two parameters that make spinning versus blocking a
// real trade-off, exactly as on the Butterfly.
//
// A Thread implements sim.Accessor, so simulated shared memory
// (sim.Cell) charges it local or remote latency automatically. All Thread
// methods except Wake must be called from inside the thread's own function.
package cthreads

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is a thread's scheduling state.
type State int

// Thread states.
const (
	StateNew     State = iota // forked, never run
	StateReady                // on a processor's ready queue
	StateRunning              // current on its processor
	StateBlocked              // waiting for Wake (or a timeout)
	StateDone                 // function returned
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Stats counts scheduling activity across a run.
type Stats struct {
	Forks           int
	ContextSwitches int
	Wakeups         int
	Timeouts        int
	Preemptions     int
}

// System is a thread package instance bound to one simulated machine.
type System struct {
	mach *sim.Machine
	// cfg is the machine's (immutable) configuration, copied once here:
	// Machine.Config returns the whole struct by value, too dear for the
	// per-charge quantum reads of SpinAccrue and the dispatch path.
	cfg       sim.Config
	eng       *sim.Engine
	procs     []*Processor
	all       []*Thread
	stats     Stats
	tracer    *trace.Tracer
	prof      *profile.Profiler
	ledger    *core.Ledger
	exitHooks []func(*Thread)

	// cluster links the system to its Cluster when the machine is one
	// shard of a sharded run; nil on a standalone system. Set only by
	// NewCluster.
	cluster *Cluster
}

// New creates a machine from cfg and a thread system on top of it, with one
// processor per machine node.
func New(cfg sim.Config) *System {
	return OnMachine(sim.NewMachine(cfg))
}

// OnMachine builds a thread system on an existing machine.
func OnMachine(m *sim.Machine) *System {
	s := &System{mach: m, cfg: m.Config(), eng: m.Engine()}
	s.procs = make([]*Processor, m.Nodes())
	for i := range s.procs {
		p := &Processor{sys: s, id: i}
		p.dispatchFn = p.dispatch // cached so maybeSchedule allocates no closure
		s.procs[i] = p
	}
	return s
}

// Machine returns the underlying simulated machine.
func (s *System) Machine() *sim.Machine { return s.mach }

// Engine returns the underlying event engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Procs reports the number of processors.
func (s *System) Procs() int { return len(s.procs) }

// Proc returns processor p.
func (s *System) Proc(p int) *Processor { return s.procs[p] }

// Stats returns scheduling counters accumulated so far.
func (s *System) Stats() Stats { return s.stats }

// SetTracer attaches (or, with nil, detaches) a structured event tracer.
// Thread lifecycle and state transitions are recorded from this point on;
// locks and monitors built on this system pick the tracer up through
// Tracer. Like every observer it leaves the engine's fast paths on.
func (s *System) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// Tracer returns the attached tracer (nil when tracing is disabled). The
// nil tracer is safe to emit to, so callers need not check.
func (s *System) Tracer() *trace.Tracer { return s.tracer }

// SetProfiler attaches (or, with nil, detaches) the virtual-time
// attribution profiler. Threads forked from this point on are registered,
// and each Run adds its engine mechanism counters to the profiler. Like
// SetTracer it leaves the engine's fast paths on.
func (s *System) SetProfiler(p *profile.Profiler) { s.prof = p }

// Profiler returns the attached profiler (nil when profiling is disabled).
// The nil profiler is safe to record to, so callers need not check.
func (s *System) Profiler() *profile.Profiler { return s.prof }

// SetLedger attaches (or, with nil, detaches) the adaptation decision
// ledger. Adaptive objects built on this system pick it up lazily through
// Ledger, so attach order relative to lock construction does not matter.
func (s *System) SetLedger(l *core.Ledger) { s.ledger = l }

// Ledger returns the attached decision ledger (nil when disabled). The
// nil ledger is safe to append to, so callers need not check.
func (s *System) Ledger() *core.Ledger { return s.ledger }

// WireObject routes an adaptive object's feedback loop into the system
// tracer (samples entering the loop and reconfigurations applied, Ψ) and
// into the adaptation decision ledger. The hooks resolve the tracer and
// ledger at fire time, so attaching either after object creation works;
// with neither attached they cost a few nil checks per sample/apply.
// Every lock and monitor kind that embeds a core.Object wires it through
// here.
func (s *System) WireObject(obj *core.Object, name string) {
	obj.OnSample(func(sm core.Sample) {
		tr := s.tracer
		if tr == nil {
			return
		}
		now := s.eng.Now()
		tr.Emit(trace.Event{At: now, Kind: trace.KindSample, Proc: -1, Thread: -1,
			Name: name, A: int64(now), B: sm.Value})
	})
	obj.OnApply(func(d core.Decision, by core.OwnerID, err error) {
		tr := s.tracer
		if tr == nil || err != nil {
			return
		}
		tr.Emit(trace.Event{At: s.eng.Now(), Kind: trace.KindReconfig, Proc: -1, Thread: -1,
			Name: name, Extra: d.String(), A: d.Value})
	})
	obj.SetLedgerSource(
		func() *core.Ledger { return s.ledger },
		func() int64 { return int64(s.eng.Now()) })
}

// traceThread records one thread-lifecycle event.
func (s *System) traceThread(kind trace.Kind, t *Thread, name string, a int64) {
	if s.tracer == nil {
		return
	}
	s.tracer.Emit(trace.Event{
		At: s.eng.Now(), Kind: kind,
		Proc: int32(t.proc.id), Thread: int32(t.id),
		Name: name, A: a,
	})
}

// OnThreadExit registers fn to run (in registration order) as each
// thread finishes, after its joiners are woken. Hooks run in the exiting
// thread's context and must not charge simulated time; they exist so
// per-thread bookkeeping keyed on *Thread (e.g. a queue lock's qnode
// records) can be released instead of retained for the run's lifetime.
func (s *System) OnThreadExit(fn func(*Thread)) {
	s.exitHooks = append(s.exitHooks, fn)
}

// Threads returns all threads ever forked, in fork order.
func (s *System) Threads() []*Thread { return s.all }

// Fork creates a thread named name pinned to processor proc; it becomes
// runnable immediately (after the usual context-switch cost when the
// processor picks it up). fn runs inside the simulation.
func (s *System) Fork(proc int, name string, fn func(t *Thread)) *Thread {
	if proc < 0 || proc >= len(s.procs) {
		panic(fmt.Sprintf("cthreads: fork %q on nonexistent processor %d", name, proc))
	}
	if sh := s.mach.Sharded(); sh != nil && sh.RankOf(proc) != s.mach.ShardRank() {
		panic(fmt.Sprintf("cthreads: fork %q on processor %d, owned by shard %d not this system's shard %d (use Cluster.Fork or Thread.ForkPost)",
			name, proc, sh.RankOf(proc), s.mach.ShardRank()))
	}
	p := s.procs[proc]
	t := &Thread{sys: s, id: len(s.all), name: name, proc: p, fn: fn, blockedAt: -1}
	t.coro = s.eng.Spawn(name, func(c *sim.Coro) {
		t.fn(t)
		t.exit()
	})
	s.all = append(s.all, t)
	s.stats.Forks++
	t.prof = s.prof.Register(name, s.eng.Now())
	s.traceThread(trace.KindThreadFork, t, name, 0)
	p.enqueue(t)
	p.maybeSchedule()
	return t
}

// Run executes the simulation until all activity completes. It returns an
// error if the machine deadlocks (threads blocked forever) or a thread
// panics; the error names the stuck threads.
func (s *System) Run() error {
	before := s.eng.Stats()
	err := s.eng.Run()
	if s.prof != nil {
		// Close this system's attribution records at the run's end time,
		// so per-thread totals equal exactly the virtual time each thread
		// existed (the conservation invariant). Only our own threads: one
		// profiler may span several systems run back to back.
		end := s.eng.Now()
		for _, t := range s.all {
			t.prof.Flush(end)
		}
		s.prof.AddEngineStats(s.eng.Stats().Sub(before))
	}
	if err == nil {
		return nil
	}
	if errors.Is(err, sim.ErrDeadlock) {
		var stuck []string
		for _, t := range s.all {
			if t.state != StateDone {
				stuck = append(stuck, fmt.Sprintf("%s(%s)", t.name, t.state))
			}
		}
		return fmt.Errorf("cthreads: %w; stuck threads: %s", err, strings.Join(stuck, ", "))
	}
	return err
}

// Now reports the current virtual time.
func (s *System) Now() sim.Time { return s.eng.Now() }

// Utilization reports the fraction of processor-time spent computing
// (thread Advance) over the run so far, across all processors. Idle
// processors and blocked-thread time lower it.
func (s *System) Utilization() float64 {
	total := sim.Time(len(s.procs)) * s.eng.Now()
	if total <= 0 {
		return 0
	}
	s.eng.SyncSpins()
	var busy sim.Time
	for _, p := range s.procs {
		busy += p.busy
	}
	return float64(busy) / float64(total)
}
