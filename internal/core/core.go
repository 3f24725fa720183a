// Package core implements the paper's model of adaptive objects
// (Mukherjee & Schwan, HPDC 1993, §3): objects whose behaviour can be
// reconfigured at run time and which embed the machinery to reconfigure
// themselves.
//
// Following the paper's formal characterization, an adaptive object couples:
//
//   - internal state IV (owned by the object's ordinary methods; not
//     modelled here),
//   - mutable attributes CV (AttrSet) whose values select among
//     implementations — each instance CVᵢ of the attribute values is one
//     policy Φᵢ,
//   - a method table Γ (MethodTable) whose installed variants complete the
//     configuration C = Γ × Φ,
//   - a monitor module M (Monitor): named sensors probed at instrumentation
//     points, each taking a sample every N-th probe (the sampling rate),
//   - a user-provided adaptation policy P (Policy) that turns samples into
//     reconfiguration decisions, and
//   - the reconfiguration mechanism Ψ (Object.Apply), whose cost is
//     accounted in memory reads and writes, t = n₁R n₂W.
//
// The feedback loop M →(vᵢ) P →(d_c) Ψ is closely coupled: a probe that
// yields a sample invokes the policy and applies its decisions
// synchronously, in the probing context. That is the design the paper
// arrives at after finding a monitor-thread-based loop too loosely coupled
// (§5.1).
//
// The package is substrate-agnostic: internal/locks and internal/active
// instantiate it for simulated multiprocessor locks and monitors.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Package-level errors for attribute and method reconfiguration.
var (
	ErrUnknownAttr    = errors.New("core: unknown attribute")
	ErrImmutable      = errors.New("core: attribute is not mutable")
	ErrOwned          = errors.New("core: attribute owned by another agent")
	ErrNotOwner       = errors.New("core: caller does not own attribute")
	ErrUnknownMethod  = errors.New("core: unknown method")
	ErrUnknownVariant = errors.New("core: unknown method variant")
)

// OwnerID identifies an agent for attribute ownership. The paper
// distinguishes implicit ownership (acquired by invoking object methods —
// represented by OwnerSelf) from explicit ownership (an external agent,
// typically a monitoring thread, invoking the acquisition method).
type OwnerID int64

// OwnerNone means the attribute is unowned; OwnerSelf is the object acting
// through its own methods (the common case: the lock owner reconfigures).
const (
	OwnerNone OwnerID = 0
	OwnerSelf OwnerID = -1
)

// CostModel expresses the cost t of a state-transition or reconfiguration
// operation as memory reads and writes, t = n₁R n₂W (§3.1).
type CostModel struct {
	Reads  int
	Writes int
}

// Add returns the sum of two costs (the paper composes complex
// reconfigurations by adding primitive-operation costs).
func (c CostModel) Add(o CostModel) CostModel {
	return CostModel{Reads: c.Reads + o.Reads, Writes: c.Writes + o.Writes}
}

// Duration converts the cost to time given per-read and per-write
// latencies (in any unit the caller chooses).
func (c CostModel) Duration(read, write int64) int64 {
	return int64(c.Reads)*read + int64(c.Writes)*write
}

// String renders the cost in the paper's notation, e.g. "1R 1W".
func (c CostModel) String() string {
	return fmt.Sprintf("%dR %dW", c.Reads, c.Writes)
}

// Decision is one reconfiguration decision d_c emitted by a policy: either
// an attribute assignment (Attr != "") or a method-variant installation
// (Method != ""), or both.
type Decision struct {
	Attr  string
	Value int64

	Method  string
	Variant string
}

// String renders the decision for logs and tests.
func (d Decision) String() string {
	var parts []string
	if d.Attr != "" {
		parts = append(parts, fmt.Sprintf("%s←%d", d.Attr, d.Value))
	}
	if d.Method != "" {
		parts = append(parts, fmt.Sprintf("%s⇐%s", d.Method, d.Variant))
	}
	if len(parts) == 0 {
		return "noop"
	}
	return strings.Join(parts, " ")
}

// Policy is a user-provided adaptation policy: it receives a monitor sample
// and the object, and returns reconfiguration decisions. React runs
// synchronously inside the probing context (closely coupled), so it must be
// cheap.
type Policy interface {
	React(s Sample, o *Object) []Decision
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(s Sample, o *Object) []Decision

// React calls f.
func (f PolicyFunc) React(s Sample, o *Object) []Decision { return f(s, o) }

// Object is an adaptive object: attributes, methods, monitor, and policy
// wired into a feedback loop. Zero or more of the parts may be unused; a
// reconfigurable (but not adaptive) object simply has no policy.
type Object struct {
	name    string
	Attrs   *AttrSet
	Methods *MethodTable
	Monitor *Monitor
	policy  Policy

	onSample func(Sample)
	onApply  func(Decision, OwnerID, error)

	// ledgerSrc/ledgerNow feed the adaptation decision ledger. Both are
	// lazy accessors (the ledger may be attached to the substrate after
	// the object is built) and may be nil or return nil — the nil ledger
	// is free to append to. core stays substrate-agnostic: the substrate
	// supplies virtual (or wall) timestamps through ledgerNow.
	ledgerSrc func() *Ledger
	ledgerNow func() int64
	// feedbackSample is the sample currently flowing through the feedback
	// loop, so Apply can record what triggered the decision.
	feedbackSample *Sample

	decisions uint64
	applied   uint64
	rejected  uint64
	reconfig  CostModel
}

// NewObject creates an empty adaptive object with the given diagnostic
// name. The monitor is wired so that samples flow to the policy and
// decisions are applied immediately.
func NewObject(name string) *Object {
	o := &Object{
		name:    name,
		Attrs:   NewAttrSet(),
		Methods: NewMethodTable(),
		Monitor: NewMonitor(),
	}
	o.Monitor.sink = o.feedback
	return o
}

// Name returns the object's diagnostic name.
func (o *Object) Name() string { return o.name }

// SetPolicy installs the adaptation policy P. A nil policy turns the
// object back into a merely reconfigurable one.
func (o *Object) SetPolicy(p Policy) { o.policy = p }

// Policy returns the installed adaptation policy.
func (o *Object) Policy() Policy { return o.policy }

// OnSample installs an observation hook invoked with every monitor sample
// entering the feedback loop, before the policy reacts. It exists for
// observability (the trace layer); it must not reconfigure the object.
func (o *Object) OnSample(fn func(Sample)) { o.onSample = fn }

// OnApply installs an observation hook invoked after every reconfiguration
// attempt (Ψ), with the decision, the acting agent, and the outcome (nil
// on success). It exists for observability; it must not reconfigure the
// object.
func (o *Object) OnApply(fn func(Decision, OwnerID, error)) { o.onApply = fn }

// SetLedgerSource wires the object to an adaptation decision ledger: src
// resolves the ledger at entry time (so attaching the ledger to the
// substrate after the object is built still works) and now supplies the
// entry timestamps. Unlike OnSample/OnApply this is first-class — it does
// not consume the observation hook slots.
func (o *Object) SetLedgerSource(src func() *Ledger, now func() int64) {
	o.ledgerSrc = src
	o.ledgerNow = now
}

// ledgerRef resolves the attached ledger (nil when disabled).
func (o *Object) ledgerRef() *Ledger {
	if o.ledgerSrc == nil {
		return nil
	}
	return o.ledgerSrc()
}

// ledgerTime resolves the current timestamp for ledger entries.
func (o *Object) ledgerTime() int64 {
	if o.ledgerNow == nil {
		return 0
	}
	return o.ledgerNow()
}

// feedback is the closely-coupled loop body: sample → policy → apply.
func (o *Object) feedback(s Sample) {
	if led := o.ledgerRef(); led != nil {
		led.Append(Entry{At: o.ledgerTime(), Object: o.name, Kind: EntrySample,
			Sensor: s.Sensor, Value: s.Value, Seq: s.Seq})
		// Copy before taking the address: &s directly would force the
		// parameter to the heap on every call, ledger or not.
		snap := s
		o.feedbackSample = &snap
		defer func() { o.feedbackSample = nil }()
	}
	if o.onSample != nil {
		o.onSample(s)
	}
	if o.policy == nil {
		return
	}
	for _, d := range o.policy.React(s, o) {
		o.decisions++
		if err := o.Apply(d, OwnerSelf); err != nil {
			o.rejected++
		}
	}
}

// Apply executes one reconfiguration decision Ψ on behalf of the given
// agent, accumulating its read/write cost. Attribute decisions respect
// mutability and ownership; method decisions respect the variant registry.
func (o *Object) Apply(d Decision, by OwnerID) (err error) {
	if led := o.ledgerRef(); led != nil {
		prev := o.Configuration()
		defer func() {
			e := Entry{At: o.ledgerTime(), Object: o.name, Kind: EntryApply,
				Decision: d.String(), Agent: int64(by), Prev: prev, Next: o.Configuration()}
			if s := o.feedbackSample; s != nil {
				e.Sensor, e.Value, e.Seq = s.Sensor, s.Value, s.Seq
			}
			if err != nil {
				e.Err = err.Error()
			}
			led.Append(e)
		}()
	}
	if o.onApply != nil {
		defer func() { o.onApply(d, by, err) }()
	}
	if d.Attr != "" {
		if err := o.Attrs.Set(d.Attr, d.Value, by); err != nil {
			return err
		}
		// Simple dynamic configuration of one attribute: 1 read (check
		// mutability/ownership) + 1 write (§5.2, Table 8).
		o.reconfig = o.reconfig.Add(CostModel{Reads: 1, Writes: 1})
		o.applied++
	}
	if d.Method != "" {
		cost, err := o.Methods.Install(d.Method, d.Variant)
		if err != nil {
			return err
		}
		o.reconfig = o.reconfig.Add(cost)
		o.applied++
	}
	return nil
}

// LoopStats reports feedback-loop activity: decisions emitted by the
// policy, decisions applied, and decisions rejected (e.g. the attribute was
// explicitly owned by an external agent at the time).
type LoopStats struct {
	Decisions uint64
	Applied   uint64
	Rejected  uint64
}

// Stats returns feedback-loop counters.
func (o *Object) Stats() LoopStats {
	return LoopStats{Decisions: o.decisions, Applied: o.applied, Rejected: o.rejected}
}

// ReconfigCost returns the accumulated cost of all reconfiguration
// operations applied so far, in the t = n₁R n₂W model.
func (o *Object) ReconfigCost() CostModel { return o.reconfig }

// Configuration renders the current configuration C = ⟨Γ, Φ⟩ as a stable
// string, e.g. "sched=fcfs; delay-time=0 spin-time=10".
func (o *Object) Configuration() string {
	var b strings.Builder
	methods := o.Methods.InstalledAll()
	keys := make([]string, 0, len(methods))
	for k := range methods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", k, methods[k])
	}
	if b.Len() > 0 {
		b.WriteString("; ")
	}
	b.WriteString(o.Attrs.String())
	return b.String()
}
