// Package monitor implements the general-purpose thread monitor of
// [GS93] the paper builds its customized lock monitor from (§5.1):
// application threads insert data-collecting sensors and probes; trace
// records flow to a *local monitor* — a monitor thread on a dedicated
// processor — which performs low-level processing and forwards them to a
// central monitor and/or to subscribers such as an adaptation module.
//
// The paper found this pipeline "too loosely coupled to be used in
// adaptive lock objects" and moved sample collection inline into the
// unlocking thread instead. This package exists to make that judgement
// measurable: experiments.CouplingComparison drives the same adaptation
// policy once through the closely-coupled inline monitor and once through
// this pipeline, and reports the decision lag and the performance cost.
//
// The same judgement carries to the asynchronous monitors of
// internal/active: their no-of-concurrent-methods sensor is probed inline
// at Invoke entry, because an exec-mode switch is only worth making while
// the contention burst that justifies it is still in progress — routed
// through this pipeline, the decision would trail the burst by the
// collection period plus the monitor thread's scheduling delay.
package monitor

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Record is one trace record produced by a probe.
type Record struct {
	// Sensor identifies the instrumentation point.
	Sensor int
	// Value is the sensed value.
	Value int64
	// At is the virtual time of collection.
	At sim.Time
	// ThreadID is the producing thread.
	ThreadID int
}

// Config parameterizes a local monitor.
type Config struct {
	// Node is the dedicated processor/memory node the monitor thread runs
	// on (application threads pay remote references to deliver records).
	Node int
	// BufferCap bounds the trace ring; records arriving at a full ring
	// are dropped and counted ("information overload", §3).
	BufferCap int
	// Poll is the monitor thread's polling period.
	Poll sim.Time
	// CentralForwardSteps, when > 0, models forwarding each processed
	// batch to a central monitor (possibly on a remote machine).
	CentralForwardSteps int
}

// perRecordSteps is the low-level processing charge per record.
const perRecordSteps = 40

func (c Config) withDefaults() Config {
	if c.BufferCap == 0 {
		c.BufferCap = 256
	}
	if c.Poll == 0 {
		c.Poll = 200 * sim.Microsecond
	}
	return c
}

// Stats summarizes a local monitor's activity.
type Stats struct {
	Records   uint64
	Drops     uint64
	Batches   uint64
	Delivered uint64
	// MeanLag is the average collection-to-delivery delay — the coupling
	// looseness the paper's §3 discusses.
	MeanLag sim.Time
}

// Subscriber receives processed records in the monitor thread's context
// (t is the monitor thread, usable for charged reconfiguration calls).
type Subscriber func(t *cthreads.Thread, r Record)

// Local is a local monitor: a bounded trace ring plus a monitor thread.
type Local struct {
	sys  *cthreads.System
	cfg  Config
	ring []Record

	subs []Subscriber

	records   uint64
	drops     uint64
	batches   uint64
	delivered uint64
	lagSum    sim.Time

	stop    bool
	stopped bool
	thread  *cthreads.Thread
}

// NewLocal creates a local monitor; Start forks its thread.
func NewLocal(sys *cthreads.System, cfg Config) *Local {
	cfg = cfg.withDefaults()
	if cfg.Node < 0 || cfg.Node >= sys.Procs() {
		panic(fmt.Sprintf("monitor: node %d out of range", cfg.Node))
	}
	return &Local{sys: sys, cfg: cfg}
}

// Subscribe registers a consumer of processed records. Must be called
// before Start.
//
//simlint:allow chargepath -- pre-Start wiring, runs before the simulation clock exists
func (m *Local) Subscribe(s Subscriber) { m.subs = append(m.subs, s) }

// Stats returns activity counters.
func (m *Local) Stats() Stats {
	st := Stats{
		Records:   m.records,
		Drops:     m.drops,
		Batches:   m.batches,
		Delivered: m.delivered,
	}
	if m.delivered > 0 {
		st.MeanLag = m.lagSum / sim.Time(m.delivered)
	}
	return st
}

// Probe is called by application threads at instrumentation points: it
// delivers one trace record to the local monitor's ring, paying two
// references to the monitor's node (the record write and the ring index
// update). A full ring drops the record.
func (m *Local) Probe(t *cthreads.Thread, sensor int, value int64) {
	rec := Record{Sensor: sensor, Value: value, At: t.Now(), ThreadID: t.ID()}
	t.Advance(2 * m.sys.Machine().AccessCost(t.Node(), m.cfg.Node))
	m.records++
	if tr := m.sys.Tracer(); tr != nil {
		tr.Emit(trace.Event{At: rec.At, Kind: trace.KindMonitorRecord,
			Proc: int32(t.Node()), Thread: int32(t.ID()),
			Name: "monitor", A: rec.Value, B: int64(rec.Sensor)})
	}
	if len(m.ring) >= m.cfg.BufferCap {
		m.drops++
		return
	}
	m.ring = append(m.ring, rec)
}

// RequestStop asks the monitor thread to exit once the ring drains. Safe
// to call from any context (it is bookkeeping, not simulated state).
//
//simlint:allow chargepath -- stop flag is harness bookkeeping, not simulated state
func (m *Local) RequestStop() { m.stop = true }

// Stopped reports whether the monitor thread has exited.
func (m *Local) Stopped() bool { return m.stopped }

// Start forks the monitor thread on its dedicated processor: it polls the
// ring, charges per-record processing, forwards to the central monitor if
// configured, and delivers each record to the subscribers.
//
//simlint:allow chargepath -- Fork bootstraps the thread that will do the charging
func (m *Local) Start() *cthreads.Thread {
	if m.thread != nil {
		panic("monitor: Start called twice")
	}
	m.thread = m.sys.Fork(m.cfg.Node, "monitor", func(t *cthreads.Thread) {
		for {
			if len(m.ring) == 0 {
				if m.stop {
					break
				}
				t.Advance(m.cfg.Poll)
				continue
			}
			batch := m.ring
			m.ring = nil
			m.batches++
			for _, rec := range batch {
				t.Compute(perRecordSteps)
				m.delivered++
				m.lagSum += t.Now() - rec.At
				// The system's ledger, when attached, gets one deliver
				// entry per record carrying the pipeline lag, so the
				// loose coupling §3 discusses is auditable next to the
				// closely-coupled decisions.
				if l := m.sys.Ledger(); l != nil { // guard: the Entry assembly below allocates
					l.Append(core.Entry{At: int64(t.Now()), Object: "monitor",
						Kind: core.EntryDeliver, Sensor: fmt.Sprintf("sensor-%d", rec.Sensor),
						Value: rec.Value, Lag: int64(t.Now() - rec.At)})
				}
				if tr := m.sys.Tracer(); tr != nil {
					tr.Emit(trace.Event{At: t.Now(), Kind: trace.KindMonitorDeliver,
						Proc: int32(t.Node()), Thread: int32(t.ID()),
						Name: "monitor", A: int64(rec.At), B: rec.Value})
				}
				for _, s := range m.subs {
					s(t, rec)
				}
			}
			if m.cfg.CentralForwardSteps > 0 {
				t.Compute(m.cfg.CentralForwardSteps)
			}
			t.Advance(m.cfg.Poll)
		}
		m.stopped = true
	})
	return m.thread
}
