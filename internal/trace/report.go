package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// ProcUtilization is one processor's running-time profile derived from the
// thread-state events of a trace.
type ProcUtilization struct {
	Proc int
	// Busy is total time some thread was in the run state on this
	// processor.
	Busy sim.Time
	// Timeline holds the per-bucket utilization fraction in [0,1].
	Timeline []float64
}

// UtilizationTimeline derives each processor's utilization over virtual
// time from thread run spans (thread-run → next state transition),
// bucketed into the given number of equal time slices. This is the
// trace-derived replacement for end-of-run System.Utilization: it shows
// *when* processors idled, not just how much.
func (tr *Tracer) UtilizationTimeline(buckets int) []ProcUtilization {
	if buckets < 1 {
		buckets = 1
	}
	events := tr.Events()
	var end sim.Time
	for _, ev := range events {
		if ev.At > end {
			end = ev.At
		}
	}
	if end == 0 {
		return nil
	}
	type runOpen struct{ since sim.Time }
	open := map[int32]*runOpen{} // thread → open run span
	busy := map[int32]sim.Time{}
	timeline := map[int32][]float64{}
	span := func(proc int32, from, to sim.Time) {
		if to <= from {
			return
		}
		busy[proc] += to - from
		tl, ok := timeline[proc]
		if !ok {
			tl = make([]float64, buckets)
			timeline[proc] = tl
		}
		// Spread the span across the buckets it overlaps.
		width := float64(end) / float64(buckets)
		for b := int(float64(from) / width); b < buckets; b++ {
			lo, hi := float64(b)*width, float64(b+1)*width
			if float64(from) > lo {
				lo = float64(from)
			}
			if float64(to) < hi {
				hi = float64(to)
			}
			if hi <= lo {
				break
			}
			tl[b] += (hi - lo) / width
		}
	}
	for _, ev := range events {
		if !ev.Kind.isThread() {
			continue
		}
		if ev.Kind == KindThreadRun {
			open[ev.Thread] = &runOpen{since: ev.At}
			continue
		}
		// Any other state transition ends a run span.
		if o, ok := open[ev.Thread]; ok {
			span(ev.Proc, o.since, ev.At)
			delete(open, ev.Thread)
		}
	}
	// A thread still running at end of trace was running until then; its
	// proc is known from any prior event, so re-scan fork events.
	proc := map[int32]int32{}
	for _, ev := range events {
		if ev.Kind == KindThreadFork {
			proc[ev.Thread] = ev.Proc
		}
	}
	var openTids []int
	for tid := range open {
		openTids = append(openTids, int(tid))
	}
	sort.Ints(openTids)
	for _, tid := range openTids {
		span(proc[int32(tid)], open[int32(tid)].since, end)
	}

	var procs []int
	for p := range timeline {
		procs = append(procs, int(p))
	}
	sort.Ints(procs)
	out := make([]ProcUtilization, 0, len(procs))
	for _, p := range procs {
		out = append(out, ProcUtilization{Proc: p, Busy: busy[int32(p)], Timeline: timeline[int32(p)]})
	}
	return out
}

// RenderUtilization renders the utilization timeline as one sparkline row
// per processor.
func RenderUtilization(rows []ProcUtilization, end sim.Time) string {
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	sb.WriteString("per-processor utilization timeline (trace-derived)\n")
	for _, r := range rows {
		var bar strings.Builder
		for _, f := range r.Timeline {
			idx := int(f * float64(len(blocks)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(blocks) {
				idx = len(blocks) - 1
			}
			bar.WriteRune(blocks[idx])
		}
		frac := 0.0
		if end > 0 {
			frac = float64(r.Busy) / float64(end)
		}
		fmt.Fprintf(&sb, "  proc%-3d %5.1f%% |%s|\n", r.Proc, 100*frac, bar.String())
	}
	return sb.String()
}

// LockProfile is one lock's contention profile derived from a trace.
type LockProfile struct {
	Name       string
	Requests   uint64
	Contended  uint64
	Sleeps     uint64
	Reconfigs  uint64
	MaxWaiting int64
	TotalWait  sim.Time
	MaxWait    sim.Time
	TotalHold  sim.Time
	Holds      uint64
}

// MeanWait reports the average request-to-grant wait.
func (p LockProfile) MeanWait() sim.Time {
	if p.Requests == 0 {
		return 0
	}
	return p.TotalWait / sim.Time(p.Requests)
}

// MeanHold reports the average hold duration.
func (p LockProfile) MeanHold() sim.Time {
	if p.Holds == 0 {
		return 0
	}
	return p.TotalHold / sim.Time(p.Holds)
}

// ContentionProfile derives per-lock contention statistics from the lock
// events of the trace, in first-seen lock order. It reproduces the
// numbers of locks.Stats purely from the event history — the two are
// cross-checked in tests — and adds hold-time accounting no counter
// collects.
func (tr *Tracer) ContentionProfile() []LockProfile {
	byName := map[string]*LockProfile{}
	var order []string
	get := func(name string) *LockProfile {
		p, ok := byName[name]
		if !ok {
			p = &LockProfile{Name: name}
			byName[name] = p
			order = append(order, name)
		}
		return p
	}
	holdStart := map[string]sim.Time{}
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case KindLockRequest:
			p := get(ev.Name)
			p.Requests++
			if ev.A > p.MaxWaiting {
				p.MaxWaiting = ev.A
			}
		case KindLockBlocked:
			get(ev.Name).Sleeps++
		case KindLockAcquire:
			p := get(ev.Name)
			if ev.B != 0 {
				p.Contended++
			}
			p.TotalWait += sim.Time(ev.A)
			if sim.Time(ev.A) > p.MaxWait {
				p.MaxWait = sim.Time(ev.A)
			}
			holdStart[ev.Name] = ev.At
		case KindLockRelease:
			p := get(ev.Name)
			if at, ok := holdStart[ev.Name]; ok {
				p.TotalHold += ev.At - at
				p.Holds++
				delete(holdStart, ev.Name)
			}
		case KindReconfig:
			if p, ok := byName[ev.Name]; ok {
				p.Reconfigs++
			}
		}
	}
	out := make([]LockProfile, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// RenderContention renders the contention profile as a fixed-width table.
func RenderContention(rows []LockProfile) string {
	t := metrics.NewTable("per-lock contention profile (trace-derived)",
		"lock", "requests", "contended", "sleeps", "max-waiting",
		"mean-wait", "max-wait", "mean-hold", "reconfigs")
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprint(r.Requests), fmt.Sprint(r.Contended), fmt.Sprint(r.Sleeps),
			fmt.Sprint(r.MaxWaiting), r.MeanWait().String(), r.MaxWait.String(),
			r.MeanHold().String(), fmt.Sprint(r.Reconfigs))
	}
	return t.String()
}

// LagProfile summarizes one adaptive object's sample-to-reconfiguration
// lag: the time between a monitored value's collection and the
// reconfiguration it triggered being applied. For the closely-coupled
// inline monitor the lag is structurally zero (sample and decision share
// the probing context); for the loosely-coupled monitor-thread pipeline it
// is bounded below by the trace-delivery delay — the §5.1 coupling
// comparison, measured directly from the trace.
type LagProfile struct {
	Object    string
	Samples   uint64
	Reconfigs uint64
	TotalLag  sim.Time
	MaxLag    sim.Time
}

// MeanLag reports the average sample-to-reconfiguration lag.
func (p LagProfile) MeanLag() sim.Time {
	if p.Reconfigs == 0 {
		return 0
	}
	return p.TotalLag / sim.Time(p.Reconfigs)
}

// AdaptationLag derives per-object adaptation-decision lag from the trace:
// each reconfiguration is attributed to the most recent sample event of
// the same object, and its lag is reconfiguration time minus the sample's
// *collection* time (KindSample.A), so pipeline delay is included.
func (tr *Tracer) AdaptationLag() []LagProfile {
	byName := map[string]*LagProfile{}
	var order []string
	lastCollected := map[string]int64{}
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case KindSample:
			p, ok := byName[ev.Name]
			if !ok {
				p = &LagProfile{Object: ev.Name}
				byName[ev.Name] = p
				order = append(order, ev.Name)
			}
			p.Samples++
			lastCollected[ev.Name] = ev.A
		case KindReconfig:
			p, ok := byName[ev.Name]
			if !ok {
				p = &LagProfile{Object: ev.Name}
				byName[ev.Name] = p
				order = append(order, ev.Name)
			}
			p.Reconfigs++
			if collected, ok := lastCollected[ev.Name]; ok {
				lag := ev.At - sim.Time(collected)
				if lag < 0 {
					lag = 0
				}
				p.TotalLag += lag
				if lag > p.MaxLag {
					p.MaxLag = lag
				}
			}
		}
	}
	out := make([]LagProfile, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// RenderLag renders the adaptation-lag report as a fixed-width table.
func RenderLag(rows []LagProfile) string {
	t := metrics.NewTable("adaptation decision lag (sample collection → reconfiguration applied)",
		"object", "samples", "reconfigs", "mean-lag", "max-lag")
	for _, r := range rows {
		t.AddRow(r.Object, fmt.Sprint(r.Samples), fmt.Sprint(r.Reconfigs),
			r.MeanLag().String(), r.MaxLag.String())
	}
	return t.String()
}

// End reports the time of the last recorded event.
func (tr *Tracer) End() sim.Time {
	var end sim.Time
	for _, ev := range tr.Events() {
		if ev.At > end {
			end = ev.At
		}
	}
	return end
}
