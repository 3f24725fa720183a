package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/trace"
)

// contendedRun drives an adaptive lock hard enough to produce thread
// blocking, contended acquisitions, and at least one reconfiguration, with
// the given tracer attached, and returns the finished system. It is the
// shared scenario for the shape and determinism tests. configure, when
// non-nil, sets the engine's modes before the run.
func contendedRun(t *testing.T, tr *trace.Tracer, configure func(*sim.Engine)) *cthreads.System {
	t.Helper()
	sys := cthreads.New(sim.Config{Nodes: 4})
	sys.SetTracer(tr)
	if configure != nil {
		configure(sys.Engine())
	}
	l := locks.NewAdaptiveLock(sys, 0, "testlock", nil)
	for i := 0; i < 8; i++ {
		i := i
		sys.Fork(i%4, fmt.Sprintf("worker%d", i), func(th *cthreads.Thread) {
			for j := 0; j < 10; j++ {
				l.Lock(th)
				th.Advance(150 * sim.Microsecond)
				l.Unlock(th)
				th.Advance(10 * sim.Microsecond)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return sys
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *trace.Tracer
	tr.Emit(trace.Event{Kind: trace.KindThreadRun})
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer reports state")
	}
	// A full simulation with a nil tracer must work untouched.
	contendedRun(t, nil, nil)
}

func TestCapacityDropsAreCounted(t *testing.T) {
	tr := trace.New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(trace.Event{Kind: trace.KindThreadRun, At: sim.Time(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
}

func TestTraceCapturesAllLayers(t *testing.T) {
	tr := trace.New(1 << 16)
	contendedRun(t, tr, nil)
	var got [64]int
	for _, ev := range tr.Events() {
		got[ev.Kind]++
	}
	for _, k := range []trace.Kind{
		trace.KindThreadFork, trace.KindThreadReady, trace.KindThreadRun,
		trace.KindThreadBlock, trace.KindThreadDone,
		trace.KindLockRequest, trace.KindLockAcquire, trace.KindLockRelease,
		trace.KindSample, trace.KindReconfig,
	} {
		if got[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
}

// TestChromeShape validates the exported Chrome trace-event JSON: the
// document structure, required per-event fields, non-negative durations,
// and the presence of the span and instant families the acceptance
// criteria name.
func TestChromeShape(t *testing.T) {
	tr := trace.New(1 << 16)
	contendedRun(t, tr, nil)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	var threadSpans, lockSpans, reconfigs int
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		switch ph {
		case "M":
			if _, ok := ev["args"].(map[string]any); !ok {
				t.Fatalf("event %d: metadata without args", i)
			}
		case "X":
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 0 {
				t.Fatalf("event %d (%s): bad dur %v", i, name, ev["dur"])
			}
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event %d (%s): missing ts", i, name)
			}
			switch name {
			case "run", "ready", "blocked":
				threadSpans++
			case "testlock":
				lockSpans++
			}
		case "i":
			if strings.HasPrefix(name, "reconfigure") {
				reconfigs++
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ph)
		}
		if _, ok := ev["pid"]; !ok && ph != "M" {
			t.Fatalf("event %d: missing pid", i)
		}
	}
	if threadSpans == 0 {
		t.Error("no thread-state spans (run/ready/blocked)")
	}
	if lockSpans == 0 {
		t.Error("no lock wait/hold spans")
	}
	if reconfigs == 0 {
		t.Error("no reconfiguration instants")
	}
}

// TestSameSeedByteIdentical runs the identical scenario twice and demands
// byte-identical Chrome and text exports: the tracer must add no
// wall-clock, map-order, or pointer-derived nondeterminism.
func TestSameSeedByteIdentical(t *testing.T) {
	render := func() (string, string) {
		tr := trace.New(1 << 16)
		contendedRun(t, tr, nil)
		var cj, tx bytes.Buffer
		if err := tr.WriteChrome(&cj); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		if err := tr.WriteText(&tx); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		return cj.String(), tx.String()
	}
	c1, t1 := render()
	c2, t2 := render()
	if c1 != c2 {
		t.Error("Chrome exports differ between identical runs")
	}
	if t1 != t2 {
		t.Error("text exports differ between identical runs")
	}
	if c1 == "" || t1 == "" {
		t.Error("empty export")
	}
}

func TestTextExport(t *testing.T) {
	tr := trace.New(1 << 16)
	contendedRun(t, tr, nil)
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"thread-fork", "lock-acquire", "reconfig", "testlock"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("text export missing %q", want)
		}
	}
}

// TestTraceExportsDifferential is the tracer's differential suite: the
// end time and the Chrome and text exports of a traced contended run
// must be byte-identical in every engine mode. The tracer observes the
// run without steering it onto a reference path, so the fast paths'
// traces are the oracle's.
func TestTraceExportsDifferential(t *testing.T) {
	var batched uint64
	simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string {
		tr := trace.New(1 << 16)
		sys := contendedRun(t, tr, func(e *sim.Engine) { m.Set(e) })
		if m.Batched {
			batched += sys.Engine().Stats().BatchedIters
		}
		var cj, tx bytes.Buffer
		if err := tr.WriteChrome(&cj); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		if err := tr.WriteText(&tx); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		return fmt.Sprintf("end %d\n%s%s", sys.Now(), cj.String(), tx.String())
	})
	if batched == 0 {
		t.Error("no batched spin iterations in any batched mode: the workload does not reach the fast path the tracer must not perturb")
	}
}
