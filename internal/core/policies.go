package core

// This file provides the adaptation policies beyond the paper's
// SimpleAdapt that the extensions use. The paper treats policies as
// user-provided (§3); these address the tuning issues it raises — noisy
// samples, and its §7 future-work item of adapting lock *schedulers* and
// execution modes in different computation phases.

// EWMA wraps another policy, feeding it an exponentially-weighted moving
// average of the sensed values instead of raw samples. It trades reaction
// speed for stability — the §3 "quality of adaptation" knob.
type EWMA struct {
	// Alpha is the new-sample weight numerator: avg ← (Alpha·v +
	// (Den-Alpha)·avg) / Den. Integer arithmetic keeps the policy cheap
	// enough to run inline.
	Alpha, Den int64
	// Inner receives the smoothed samples.
	Inner Policy

	initialized bool
	avg         int64
}

// React implements Policy.
func (p *EWMA) React(s Sample, o *Object) []Decision {
	if p.Den <= 0 || p.Alpha <= 0 || p.Alpha > p.Den {
		// Degenerate configuration: pass through.
		return p.Inner.React(s, o)
	}
	if !p.initialized {
		p.initialized = true
		p.avg = s.Value
	} else {
		p.avg = (p.Alpha*s.Value + (p.Den-p.Alpha)*p.avg) / p.Den
	}
	smoothed := s
	smoothed.Value = p.avg
	return p.Inner.React(smoothed, o)
}

// SchedulerAdapt is the §7 future-work policy: it reconfigures a lock's
// scheduler method between computation phases. With few waiters the queue
// order is irrelevant and the cheap FCFS release component suffices; when
// the queue grows past QueueThreshold, ordering matters and the priority
// variant is installed so urgent threads are served first.
type SchedulerAdapt struct {
	// Method is the reconfigurable method name (locks.MethodScheduler).
	Method string
	// Calm and Busy are the variants for the two regimes (typically
	// "fcfs" and "priority").
	Calm, Busy string
	// QueueThreshold is the waiting count at which Busy is installed.
	QueueThreshold int64
}

// React implements Policy.
func (p SchedulerAdapt) React(s Sample, o *Object) []Decision {
	cur, err := o.Methods.Installed(p.Method)
	if err != nil {
		return nil
	}
	want := p.Calm
	if s.Value > p.QueueThreshold {
		want = p.Busy
	}
	if want == cur {
		return nil
	}
	return []Decision{{Method: p.Method, Variant: want}}
}

// ExecModeAdapt switches a monitor between synchronous and asynchronous
// execution off a contention sensor: when the sensed value (e.g. queued or
// waiting method calls) climbs to AsyncAt, batched asynchronous execution
// is installed; when it falls back to SyncAt, direct synchronous execution
// returns. The two thresholds form a hysteresis band (set AsyncAt >
// SyncAt) so a value hovering at one boundary does not flap the mode.
// Execution mode is just another adjustable implementation choice, per
// the "Adjusted Objects" framing.
type ExecModeAdapt struct {
	// Attr is the mutable execution-mode attribute (active.AttrExecMode).
	Attr string
	// Sync and Async are the attribute values for the two modes
	// (typically 0 and 1).
	Sync, Async int64
	// AsyncAt is the sensed value at (or above) which Async is installed;
	// SyncAt the value at (or below) which Sync is restored.
	AsyncAt, SyncAt int64
}

// React implements Policy.
func (p ExecModeAdapt) React(s Sample, o *Object) []Decision {
	cur, err := o.Attrs.Get(p.Attr)
	if err != nil {
		return nil
	}
	want := cur
	switch {
	case s.Value >= p.AsyncAt:
		want = p.Async
	case s.Value <= p.SyncAt:
		want = p.Sync
	}
	if want == cur {
		return nil
	}
	return []Decision{{Attr: p.Attr, Value: want}}
}
