// Benchmarks pinning the zero-overhead contract of the virtual-time
// attribution profiler (internal/profile): with profiling disabled — the
// nil *Profiler every unobserved run carries — the thread-package and
// lock hot paths must not allocate. Each benchmark runs b.N operations
// inside ONE simulation (the same pattern as BenchmarkCoroSwitch), so the
// fixed setup cost amortizes away and allocs/op measures the steady
// state. The *Enabled* variants report the cost of exact attribution for
// contrast; they are allowed to allocate (new attribution keys intern
// once per distinct stack).
//
// The test file lives in package sim_test because the hooks under test
// span sim (dispatch, spin fast-forward), cthreads (base transitions),
// and locks (method/critical-section frames).
package sim_test

import (
	"testing"

	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/profile"
	"repro/internal/sim"
)

// benchProfileLock runs b.N uncontended lock/unlock cycles on a spin lock
// with the given profiler attached (nil = disabled).
func benchProfileLock(b *testing.B, p *profile.Profiler) {
	b.ReportAllocs()
	sys := cthreads.New(sim.Config{Nodes: 2})
	sys.SetProfiler(p)
	l := locks.NewSpinLock(sys, 0, "bench")
	sys.Fork(0, "worker", func(t *cthreads.Thread) {
		for i := 0; i < b.N; i++ {
			l.Lock(t)
			t.Advance(100 * sim.Nanosecond)
			l.Unlock(t)
		}
	})
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProfileDisabledLock proves the lock-layer profiler hooks
// (observe, acquired, unlockStart/unlockEnd) are free when disabled.
func BenchmarkProfileDisabledLock(b *testing.B) { benchProfileLock(b, nil) }

// BenchmarkProfileEnabledLock is the enabled contrast: every cycle pays
// the frame pushes/pops and the wait/hold histogram records.
func BenchmarkProfileEnabledLock(b *testing.B) { benchProfileLock(b, profile.New()) }

// benchProfileSpin runs one bounded busy-wait of b.N futile probes with a
// labelled spec, with the given profiler attached.
func benchProfileSpin(b *testing.B, p *profile.Profiler) {
	b.ReportAllocs()
	sys := cthreads.New(sim.Config{Nodes: 1})
	sys.SetProfiler(p)
	cell := sys.Machine().NewCell(0, "flag", 0)
	sys.Fork(0, "spinner", func(t *cthreads.Thread) {
		spec := sim.SpinSpec{
			ProbeCell: cell,
			Probe:     func() bool { return cell.Peek() != 0 },
			PauseCost: func() sim.Time { return 100 * sim.Nanosecond },
			MaxIters:  int64(b.N),
			Label:     "spin:bench",
		}
		t.SpinUntil(&spec)
	})
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProfileDisabledSpin proves the labelled-spin frame bracket in
// Thread.SpinUntil is free when disabled, batching included.
func BenchmarkProfileDisabledSpin(b *testing.B) { benchProfileSpin(b, nil) }

// benchProfileBlock runs b.N block/wake handoffs: a consumer crosses the
// blocked→queued→running base transitions the profiler hooks on every
// cycle, driven by a producer waking it at a safe cadence.
// (BlockTimeout is unsuitable here: its timer closure allocates per call
// with or without a profiler.)
func benchProfileBlock(b *testing.B, p *profile.Profiler) {
	b.ReportAllocs()
	sys := cthreads.New(sim.Config{Nodes: 2})
	sys.SetProfiler(p)
	consumer := sys.Fork(0, "consumer", func(t *cthreads.Thread) {
		for i := 0; i < b.N; i++ {
			t.Block()
		}
	})
	sys.Fork(1, "producer", func(t *cthreads.Thread) {
		for i := 0; i < b.N; i++ {
			// The consumer re-blocks instantly after each wake; advancing
			// past the dispatch latency guarantees it is blocked again.
			t.Advance(10 * sim.Microsecond)
			if !t.Wake(consumer) {
				b.Fatal("consumer was not blocked")
			}
		}
	})
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProfileDisabledBlock proves the base-transition hooks in
// enqueue/dispatch/Block are free when disabled.
func BenchmarkProfileDisabledBlock(b *testing.B) { benchProfileBlock(b, nil) }

// TestProfileDisabledZeroAlloc is the hard gate behind the Disabled
// benchmarks: run them through testing.Benchmark and require exactly zero
// allocations per operation, so a regression fails `go test` rather than
// only nudging a report-only benchmark number.
func TestProfileDisabledZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	cases := []struct {
		name  string
		bench func(*testing.B)
	}{
		{"lock", BenchmarkProfileDisabledLock},
		{"spin", BenchmarkProfileDisabledSpin},
		{"block", BenchmarkProfileDisabledBlock},
	}
	for _, c := range cases {
		r := testing.Benchmark(c.bench)
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("%s: nil-profiler hot path allocates %d allocs/op, want 0", c.name, a)
		}
	}
}
