// Package trace is the virtual-time structured event tracer that spans
// every layer of the reproduction above the engine: thread lifecycle and
// state transitions, lock activity (request, contention, sleep,
// acquisition, release), the adaptive feedback loop (sensor sample,
// reconfiguration applied), and the loosely-coupled general-purpose
// monitor pipeline (record collection and delivery).
//
// A Tracer owns a bounded ring of typed events, each stamped with
// sim.Time, processor/node, and thread ID. Tracing is injectable and
// zero-overhead when disabled: every emit helper is safe on a nil *Tracer
// and performs no allocation and no work beyond the nil check, so the hot
// paths of the simulator, thread package, and lock family can call them
// unconditionally. Attaching a tracer leaves the engine's fast paths on,
// and a traced run's exports are identical in every engine mode
// (TestTraceExportsDifferential).
//
// All trace content derives from simulated state, so identical seeds
// produce byte-identical exporter output (see WriteChrome, WriteText) —
// the determinism regression tests rely on this.
//
// Exporters and reports:
//
//   - WriteChrome renders Chrome trace-event JSON loadable in Perfetto
//     (one track per processor, lock hold/wait spans as duration events,
//     reconfigurations as instant events).
//   - WriteText renders a plain-text event log, one line per event.
//   - UtilizationTimeline, ContentionProfile, and AdaptationLag derive
//     reports from the event history (report.go).
package trace

import "repro/internal/sim"

// Kind is the type of one trace event.
type Kind uint8

// Event kinds, grouped by the layer that emits them.
const (
	// KindThreadFork: a thread was forked onto Proc. Name is the thread
	// name (the exporter learns thread names from these).
	KindThreadFork Kind = iota
	// KindThreadReady: the thread joined its processor's ready queue.
	KindThreadReady
	// KindThreadRun: the processor dispatched the thread.
	KindThreadRun
	// KindThreadBlock: the thread suspended itself (Block/BlockTimeout).
	// A is the timeout in ns (0 = none).
	KindThreadBlock
	// KindThreadDone: the thread's function returned.
	KindThreadDone

	// KindLockRequest: a thread asked for the lock. Name is the lock
	// name; A is the number of threads already waiting (the quantity of
	// the paper's Figures 4–9).
	KindLockRequest
	// KindLockBlocked: a requester exhausted its spins and went to sleep.
	KindLockBlocked
	// KindLockAcquire: the requester owns the lock. A is the
	// request-to-grant wait in ns; B is 1 if the acquisition was
	// contended.
	KindLockAcquire
	// KindLockRelease: the owner released the lock.
	KindLockRelease

	// KindSample: the feedback loop consumed one monitor sample. Name is
	// the adaptive object; A is the virtual time the value was collected
	// (equal to At for the closely-coupled inline monitor, earlier for
	// the loosely-coupled pipeline); B is the sensed value.
	KindSample
	// KindReconfig: a reconfiguration decision was applied (Ψ). Name is
	// the object; Extra renders the decision (e.g. "spin-time←40"); A is
	// the attribute value when the decision set one.
	KindReconfig

	// KindMonitorRecord: an application thread delivered a trace record
	// to the general-purpose monitor's ring. A is the sensed value; B is
	// the sensor index.
	KindMonitorRecord
	// KindMonitorDeliver: the monitor thread processed one record. A is
	// the collection time in ns (so At−A is the pipeline lag); B is the
	// sensed value.
	KindMonitorDeliver

	// KindSubmit: a caller submitted a method to an active monitor's
	// pending queue and received a future. Name is the monitor; A is the
	// queue depth after the enqueue; B is 1 when the submitter went on to
	// combine the batch itself.
	KindSubmit
	// KindCombine: a combiner (lock holder or server thread) drained one
	// batch of pending methods. Name is the monitor; A is the number of
	// methods executed in the batch; B is 1 when the combiner was the
	// dedicated server thread.
	KindCombine

	kindCount // number of kinds; keep last
)

// kindNames renders kinds for the text exporter and reports.
var kindNames = [kindCount]string{
	KindThreadFork:     "thread-fork",
	KindThreadReady:    "thread-ready",
	KindThreadRun:      "thread-run",
	KindThreadBlock:    "thread-block",
	KindThreadDone:     "thread-done",
	KindLockRequest:    "lock-request",
	KindLockBlocked:    "lock-blocked",
	KindLockAcquire:    "lock-acquire",
	KindLockRelease:    "lock-release",
	KindSample:         "adapt-sample",
	KindReconfig:       "reconfig",
	KindMonitorRecord:  "mon-record",
	KindMonitorDeliver: "mon-deliver",
	KindSubmit:         "mon-submit",
	KindCombine:        "mon-combine",
}

// String returns the kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// isThread reports whether k is a thread lifecycle or state transition,
// the kinds that open the list above.
func (k Kind) isThread() bool { return k <= KindThreadDone }

// Event is one trace record. Proc and Thread are -1 when the emitting
// context is not a simulated thread (e.g. a reconfiguration applied during
// experiment setup).
type Event struct {
	At     sim.Time
	Kind   Kind
	Proc   int32
	Thread int32
	// Name is the event's subject: lock name, adaptive-object name, or
	// (for KindThreadFork) the thread's name.
	Name string
	// Extra is a secondary label: a rendered decision for KindReconfig.
	Extra string
	// A and B are kind-specific arguments; see the Kind constants.
	A, B int64
}

// DefaultCapacity bounds the event ring when the caller passes a
// non-positive capacity to New. 1M events ≈ 70 MB, enough for every
// experiment in the harness at full instrumentation.
const DefaultCapacity = 1 << 20

// Tracer records typed events into a bounded buffer. The zero of
// *Tracer — nil — is a valid disabled tracer: every method is nil-safe.
type Tracer struct {
	limit   int
	events  []Event
	dropped uint64
}

// New returns a tracer recording every event into a buffer bounded at
// capacity events (<= 0 means
// DefaultCapacity). Events past the bound are counted in Dropped and
// discarded — deterministically, since the event stream itself is
// deterministic.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{limit: capacity}
}

// Emit records one event. Safe (and free) on a nil tracer.
func (tr *Tracer) Emit(ev Event) {
	if tr == nil {
		return
	}
	if len(tr.events) >= tr.limit {
		tr.dropped++
		return
	}
	tr.events = append(tr.events, ev)
}

// Events returns the recorded events in emission order. The slice is the
// tracer's own backing store; callers must not mutate it.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	return tr.events
}

// Len reports the number of recorded events.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.events)
}

// Dropped reports how many events were discarded at the capacity bound.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.dropped
}

// Reset discards all recorded events (the bound stays).
func (tr *Tracer) Reset() {
	if tr != nil {
		tr.events = tr.events[:0]
		tr.dropped = 0
	}
}
