package trace_test

import (
	"fmt"
	"testing"

	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchWorkload is one contended-lock simulation, the hot path the
// nil-tracer guarantee protects. Compare:
//
//	go test -bench 'Tracer(Nil|Enabled)' -benchmem ./internal/trace/
//
// BenchmarkTracerNil must match the pre-trace baseline: 0 tracer
// allocations and no measurable time over an untraced run.
func benchWorkload(b *testing.B, tr *trace.Tracer) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Reset()
		}
		sys := cthreads.New(sim.Config{Nodes: 4})
		sys.SetTracer(tr)
		l := locks.NewSpinLock(sys, 0, "bench")
		for w := 0; w < 4; w++ {
			w := w
			sys.Fork(w, fmt.Sprintf("w%d", w), func(t *cthreads.Thread) {
				for j := 0; j < 50; j++ {
					l.Lock(t)
					t.Advance(5 * sim.Microsecond)
					l.Unlock(t)
					t.Advance(5 * sim.Microsecond)
				}
			})
		}
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTracerNil(b *testing.B)     { benchWorkload(b, nil) }
func BenchmarkTracerEnabled(b *testing.B) { benchWorkload(b, trace.New(1<<16)) }

func BenchmarkEmit(b *testing.B) {
	tr := trace.New(1 << 20)
	ev := trace.Event{At: 1, Kind: trace.KindLockAcquire, Proc: 1, Thread: 2, Name: "l", A: 3, B: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Len() == 1<<20 {
			tr.Reset()
		}
		tr.Emit(ev)
	}
}

func BenchmarkEmitNil(b *testing.B) {
	var tr *trace.Tracer
	ev := trace.Event{At: 1, Kind: trace.KindLockAcquire, Proc: 1, Thread: 2, Name: "l", A: 3, B: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
}
