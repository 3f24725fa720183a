package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

// syntheticTrace builds a hand-computable event history: one processor,
// one thread running 40µs of a 100µs trace; one lock with two requests
// (one contended with a 5µs wait and a sleep), two 10µs holds; one
// adaptive object with a sample collected at 20µs and consumed at 50µs,
// and a reconfiguration applied at 60µs (lag 40µs).
func syntheticTrace() *Tracer {
	tr := New(256)
	emit := func(ev Event) { tr.Emit(ev) }
	emit(Event{At: 0, Kind: KindThreadFork, Proc: 0, Thread: 1, Name: "w"})
	emit(Event{At: us(10), Kind: KindThreadRun, Proc: 0, Thread: 1})
	emit(Event{At: us(30), Kind: KindThreadBlock, Proc: 0, Thread: 1})
	emit(Event{At: us(50), Kind: KindThreadRun, Proc: 0, Thread: 1})
	emit(Event{At: us(70), Kind: KindThreadDone, Proc: 0, Thread: 1})

	emit(Event{At: us(10), Kind: KindLockRequest, Proc: 0, Thread: 1, Name: "l", A: 0})
	emit(Event{At: us(10), Kind: KindLockAcquire, Proc: 0, Thread: 1, Name: "l", A: 0, B: 0})
	emit(Event{At: us(20), Kind: KindLockRelease, Proc: 0, Thread: 1, Name: "l"})
	emit(Event{At: us(50), Kind: KindLockRequest, Proc: 0, Thread: 1, Name: "l", A: 3})
	emit(Event{At: us(52), Kind: KindLockBlocked, Proc: 0, Thread: 1, Name: "l"})
	emit(Event{At: us(55), Kind: KindLockAcquire, Proc: 0, Thread: 1, Name: "l", A: int64(us(5)), B: 1})
	emit(Event{At: us(65), Kind: KindLockRelease, Proc: 0, Thread: 1, Name: "l"})

	emit(Event{At: us(50), Kind: KindSample, Proc: -1, Thread: -1, Name: "obj", A: int64(us(20)), B: 4})
	emit(Event{At: us(60), Kind: KindReconfig, Proc: -1, Thread: -1, Name: "obj", Extra: "spin-time=0", A: 0})

	return tr
}

func TestUtilizationTimeline(t *testing.T) {
	tr := syntheticTrace()
	rows := tr.UtilizationTimeline(10)
	if len(rows) != 1 {
		t.Fatalf("got %d processors, want 1", len(rows))
	}
	r := rows[0]
	if r.Proc != 0 {
		t.Errorf("proc = %d, want 0", r.Proc)
	}
	// Run spans: 10–30 and 50–70 = 40µs busy out of a 70µs trace end
	// (the last event is thread-done).
	if r.Busy != us(40) {
		t.Errorf("busy = %v, want 40µs", r.Busy)
	}
	if len(r.Timeline) != 10 {
		t.Fatalf("timeline has %d buckets, want 10", len(r.Timeline))
	}
	var sum float64
	for _, f := range r.Timeline {
		if f < 0 || f > 1.0001 {
			t.Errorf("bucket fraction %v out of range", f)
		}
		sum += f
	}
	// 40µs busy over 10 buckets of 7µs each ≈ 5.71 bucket-fractions.
	want := float64(us(40)) / (float64(us(70)) / 10)
	if sum < want-0.01 || sum > want+0.01 {
		t.Errorf("total bucket fraction = %v, want ≈%v", sum, want)
	}
}

func TestContentionProfile(t *testing.T) {
	tr := syntheticTrace()
	rows := tr.ContentionProfile()
	if len(rows) != 1 {
		t.Fatalf("got %d locks, want 1", len(rows))
	}
	p := rows[0]
	if p.Name != "l" {
		t.Errorf("name = %q, want l", p.Name)
	}
	if p.Requests != 2 || p.Contended != 1 || p.Sleeps != 1 {
		t.Errorf("requests/contended/sleeps = %d/%d/%d, want 2/1/1",
			p.Requests, p.Contended, p.Sleeps)
	}
	if p.MaxWaiting != 3 {
		t.Errorf("max waiting = %d, want 3", p.MaxWaiting)
	}
	if p.TotalWait != us(5) || p.MaxWait != us(5) {
		t.Errorf("wait total/max = %v/%v, want 5µs/5µs", p.TotalWait, p.MaxWait)
	}
	if p.Holds != 2 || p.TotalHold != us(20) {
		t.Errorf("holds/total-hold = %d/%v, want 2/20µs", p.Holds, p.TotalHold)
	}
	if p.MeanHold() != us(10) {
		t.Errorf("mean hold = %v, want 10µs", p.MeanHold())
	}
	if p.Reconfigs != 0 {
		t.Errorf("reconfigs = %d, want 0 (reconfig was for another object)", p.Reconfigs)
	}
}

func TestAdaptationLag(t *testing.T) {
	tr := syntheticTrace()
	rows := tr.AdaptationLag()
	if len(rows) != 1 {
		t.Fatalf("got %d objects, want 1", len(rows))
	}
	p := rows[0]
	if p.Object != "obj" || p.Samples != 1 || p.Reconfigs != 1 {
		t.Fatalf("object/samples/reconfigs = %q/%d/%d, want obj/1/1",
			p.Object, p.Samples, p.Reconfigs)
	}
	// Reconfiguration at 60µs attributed to the sample *collected* at
	// 20µs: the lag includes the pipeline delay, not just policy time.
	if p.MeanLag() != us(40) || p.MaxLag != us(40) {
		t.Errorf("lag mean/max = %v/%v, want 40µs/40µs", p.MeanLag(), p.MaxLag)
	}
}

func TestRenderersAreTotal(t *testing.T) {
	tr := syntheticTrace()
	u := RenderUtilization(tr.UtilizationTimeline(8), tr.End())
	c := RenderContention(tr.ContentionProfile())
	l := RenderLag(tr.AdaptationLag())
	for _, s := range []string{u, c, l} {
		if !strings.HasSuffix(s, "\n") || len(s) == 0 {
			t.Errorf("renderer output malformed: %q", s)
		}
	}
	if !strings.Contains(c, "l") || !strings.Contains(l, "obj") {
		t.Error("renderers dropped subjects")
	}
	// Empty tracer: reports must not panic and render headers only.
	empty := New(8)
	_ = RenderUtilization(empty.UtilizationTimeline(8), empty.End())
	_ = RenderContention(empty.ContentionProfile())
	_ = RenderLag(empty.AdaptationLag())
}
