package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// spinAccessor implements SpinContext for engine-level tests: plain
// accrual with no scheduling boundaries (the preempting implementation is
// exercised by the cthreads and locks differential suites).
type spinAccessor struct {
	c    *Coro
	node int
	busy Time
}

func (a *spinAccessor) Node() int { return a.node }
func (a *spinAccessor) Advance(d Time) {
	if d < 0 {
		d = 0
	}
	a.busy += d
	a.c.Sleep(d)
}
func (a *spinAccessor) SpinAccrue(d Time) (Time, bool) { a.busy += d; return d, false }
func (a *spinAccessor) SpinBoundary() bool             { return false }
func (a *spinAccessor) SpinBudget() Time               { return MaxTime }

// spinWorkloadParams shapes one differential spin workload.
type spinWorkloadParams struct {
	seed    uint64
	svc     Time // ModuleService
	workers int
	rounds  int
	noise   int // unrelated timer events that cut batching windows
}

// spinObs is everything observable a spin workload produced. Two runs
// of the same workload must produce deeply equal spinObs regardless of
// the batched-spin and inline-wakeup settings.
type spinObs struct {
	log      []string
	finalNow Time
	finalSeq uint64
	busy     []Time
	accesses []uint64
	qdelay   []Time
	err      string
}

// runSpinWorkload drives a token-passing ring through SpinUntil: worker i
// busy-waits (charged probes of the shared token cell, fixed per-round
// pauses drawn from a forked RNG) for the token values congruent to i,
// does some work, and passes the token on with a charged store. Workers
// start staggered, so the early phase has solitary spinners (batching
// windows) and the steady state has all workers' charges interleaving
// (per-event emulation). Bounded pre-spins exercise MaxIters exhaustion.
func runSpinWorkload(tb testing.TB, p spinWorkloadParams, batched, inline bool) spinObs {
	tb.Helper()
	m := NewMachine(Config{Nodes: 3, ModuleService: p.svc, Seed: p.seed})
	e := m.Engine()
	e.SetBatchedSpins(batched)
	e.SetInlineWakeups(inline)
	token := m.NewCell(0, "token", 0)
	obs := spinObs{}
	logf := func(format string, args ...any) {
		obs.log = append(obs.log, fmt.Sprintf("%d/%d ", e.now, e.seq)+fmt.Sprintf(format, args...))
	}
	for i := 0; i < p.noise; i++ {
		e.At(Time(i+1)*537*Microsecond, func() {})
	}
	rng := NewRNG(p.seed)
	for i := 0; i < p.workers; i++ {
		i := i
		r := rng.Fork()
		a := &spinAccessor{node: i % m.Nodes()}
		c := e.Spawn(fmt.Sprintf("w%d", i), func(c *Coro) {
			a.c = c
			for round := 0; round < p.rounds; round++ {
				want := uint64(round*p.workers + i)
				pause := Time(100 + r.Intn(500))
				probe := func() bool { return token.Peek() == want }
				// A bounded warm-up spin that usually exhausts, then the
				// real unbounded wait.
				pre := &SpinSpec{
					ProbeCell: token, ProbeAtomic: i%2 == 0,
					Probe: probe, PauseCost: func() Time { return pause },
					MaxIters: int64(r.Intn(4)),
				}
				iters, ok := c.SpinUntil(a, pre)
				logf("w%d r%d pre iters=%d ok=%v", i, round, iters, ok)
				if !ok {
					spec := &SpinSpec{
						ProbeCell: token, ProbeAtomic: i%2 == 0,
						Probe: probe, PauseCost: func() Time { return pause },
						MaxIters: SpinUnbounded,
					}
					iters, ok = c.SpinUntil(a, spec)
					logf("w%d r%d spin iters=%d ok=%v", i, round, iters, ok)
				}
				a.Advance(Time(1+r.Intn(200)) * Microsecond)
				token.AtomicAdd(a, 1)
				logf("w%d r%d passed", i, round)
			}
		})
		c.Start(Time(i) * 3 * Millisecond)
		obs.busy = append(obs.busy, 0)
		defer func(i int) { obs.busy[i] = a.busy }(i)
	}
	if err := e.Run(); err != nil {
		obs.err = err.Error()
	}
	obs.finalNow, obs.finalSeq = e.now, e.seq
	for n := 0; n < m.Nodes(); n++ {
		obs.accesses = append(obs.accesses, m.ModuleAccesses(n))
		obs.qdelay = append(obs.qdelay, m.ModuleQueueDelay(n))
	}
	return obs
}

// diffSpinObs compares a variant run against the reference.
func diffSpinObs(t *testing.T, name string, ref, got spinObs) {
	t.Helper()
	if ref.finalNow != got.finalNow || ref.finalSeq != got.finalSeq {
		t.Errorf("%s: final (now, seq) = (%d, %d), want (%d, %d)",
			name, got.finalNow, got.finalSeq, ref.finalNow, ref.finalSeq)
	}
	if ref.err != got.err {
		t.Errorf("%s: err %q, want %q", name, got.err, ref.err)
	}
	if !reflect.DeepEqual(ref.busy, got.busy) {
		t.Errorf("%s: busy %v, want %v", name, got.busy, ref.busy)
	}
	if !reflect.DeepEqual(ref.accesses, got.accesses) {
		t.Errorf("%s: module accesses %v, want %v", name, got.accesses, ref.accesses)
	}
	if !reflect.DeepEqual(ref.qdelay, got.qdelay) {
		t.Errorf("%s: module queue delay %v, want %v", name, got.qdelay, ref.qdelay)
	}
	if len(ref.log) != len(got.log) {
		t.Fatalf("%s: %d log records, want %d", name, len(got.log), len(ref.log))
	}
	for i := range ref.log {
		if ref.log[i] != got.log[i] {
			t.Fatalf("%s: log[%d] = %q, want %q", name, i, got.log[i], ref.log[i])
		}
	}
}

// diffSpinModes runs one workload in all four (batched, inline) modes and
// requires byte-identical observations, with the per-iteration slow path
// under inline wakeups as the reference.
func diffSpinModes(t *testing.T, p spinWorkloadParams) {
	t.Helper()
	ref := runSpinWorkload(t, p, false, true)
	for _, mode := range []struct {
		name            string
		batched, inline bool
	}{
		{"batched+inline", true, true},
		{"batched+noinline", true, false},
		{"slow+noinline", false, false},
	} {
		diffSpinObs(t, mode.name, ref, runSpinWorkload(t, p, mode.batched, mode.inline))
	}
}

func TestSpinUntilDifferential(t *testing.T) {
	for _, svc := range []Time{0, 400 * Nanosecond} {
		t.Run(fmt.Sprintf("svc=%v", svc), func(t *testing.T) {
			diffSpinModes(t, spinWorkloadParams{seed: 7, svc: svc, workers: 3, rounds: 3, noise: 2})
		})
	}
}

// FuzzSpinDifferential drives randomized ring workloads — varying module
// service, worker count, and noise events — through all four engine
// modes, requiring identical (now, seq)-stamped logs, busy accrual, and
// module-contention accounting.
func FuzzSpinDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(3), uint8(4), uint8(1))
	f.Add(uint64(99), uint8(4), uint8(1), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, workers, rounds, svcUnits, noise uint8) {
		p := spinWorkloadParams{
			seed:    seed%1000 + 1,
			svc:     Time(svcUnits%8) * 200 * Nanosecond,
			workers: int(workers%4) + 1,
			rounds:  int(rounds%3) + 1,
			noise:   int(noise % 4),
		}
		diffSpinModes(t, p)
	})
}

// TestSpinFastForwardEngages proves the closed-form fast path actually
// fires for a solitary spinner — and that it skips to exactly the state
// the per-iteration path reaches.
func TestSpinFastForwardEngages(t *testing.T) {
	run := func(batched bool) (iters int64, now Time, seq uint64, ffwds, skipped uint64) {
		m := NewMachine(Config{Nodes: 1, ModuleService: 400 * Nanosecond})
		e := m.Engine()
		e.SetBatchedSpins(batched)
		cell := m.NewCell(0, "flag", 0)
		e.After(10*Millisecond, func() { cell.Poke(1) })
		a := &spinAccessor{}
		c := e.Spawn("spinner", func(c *Coro) {
			a.c = c
			spec := &SpinSpec{
				ProbeCell: cell, ProbeAtomic: true,
				Probe:     func() bool { return cell.Peek() != 0 },
				PauseCost: func() Time { return 250 * Nanosecond },
				MaxIters:  SpinUnbounded,
			}
			iters, _ = c.SpinUntil(a, spec)
		})
		c.Start(0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return iters, e.now, e.seq, e.spinFastForwards, e.spinBatchedIters
	}
	slowIters, slowNow, slowSeq, _, _ := run(false)
	fastIters, fastNow, fastSeq, ffwds, skipped := run(true)
	if fastIters != slowIters || fastNow != slowNow || fastSeq != slowSeq {
		t.Errorf("batched (iters=%d now=%d seq=%d) != slow (iters=%d now=%d seq=%d)",
			fastIters, fastNow, fastSeq, slowIters, slowNow, slowSeq)
	}
	if ffwds == 0 || skipped == 0 {
		t.Errorf("fast-forward never engaged (ffwds=%d skipped=%d)", ffwds, skipped)
	}
	if slowIters < 100 {
		t.Errorf("workload too small to be meaningful: %d iters", slowIters)
	}
	if skipped < uint64(slowIters)/2 {
		t.Errorf("fast-forward skipped only %d of %d iterations", skipped, slowIters)
	}
}

// TestSpinMaxIters pins the bounded-spin edge cases: MaxIters 0 probes
// once and gives up without pausing; a bounded spin exhausts at the same
// instant on both paths, including when the fast path forwards straight
// to the bound with no event in sight (where the slow path must not hang
// either, because the bound stops it).
func TestSpinMaxIters(t *testing.T) {
	run := func(batched bool, maxIters int64) (iters int64, ok bool, now Time, seq uint64) {
		m := NewMachine(Config{Nodes: 1})
		e := m.Engine()
		e.SetBatchedSpins(batched)
		cell := m.NewCell(0, "flag", 0)
		a := &spinAccessor{}
		c := e.Spawn("spinner", func(c *Coro) {
			a.c = c
			spec := &SpinSpec{
				ProbeCell: cell,
				Probe:     func() bool { return cell.Peek() != 0 },
				PauseCost: func() Time { return 100 * Nanosecond },
				MaxIters:  maxIters,
			}
			iters, ok = c.SpinUntil(a, spec)
		})
		c.Start(0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return iters, ok, e.now, e.seq
	}
	for _, maxIters := range []int64{0, 1, 7, 1000} {
		si, sok, snow, sseq := run(false, maxIters)
		bi, bok, bnow, bseq := run(true, maxIters)
		if si != maxIters || sok {
			t.Fatalf("slow path: iters=%d ok=%v, want %d false", si, sok, maxIters)
		}
		if bi != si || bok != sok || bnow != snow || bseq != sseq {
			t.Errorf("MaxIters=%d: batched (%d %v %d %d) != slow (%d %v %d %d)",
				maxIters, bi, bok, bnow, bseq, si, sok, snow, sseq)
		}
	}
}

// TestSpinRunForWindow drives a spin across a RunFor deadline: the window
// must bound batching exactly as it bounds inline wakeups, and resuming
// with Run must complete identically to the slow path.
func TestSpinRunForWindow(t *testing.T) {
	run := func(batched bool) (midNow, endNow Time, midSeq, endSeq uint64, iters int64) {
		m := NewMachine(Config{Nodes: 1})
		e := m.Engine()
		e.SetBatchedSpins(batched)
		cell := m.NewCell(0, "flag", 0)
		e.After(5*Millisecond, func() { cell.Poke(1) })
		a := &spinAccessor{}
		c := e.Spawn("spinner", func(c *Coro) {
			a.c = c
			spec := &SpinSpec{
				ProbeCell: cell,
				Probe:     func() bool { return cell.Peek() != 0 },
				PauseCost: func() Time { return 300 * Nanosecond },
				MaxIters:  SpinUnbounded,
			}
			iters, _ = c.SpinUntil(a, spec)
		})
		c.Start(0)
		if err := e.RunFor(2 * Millisecond); err != nil {
			t.Fatal(err)
		}
		midNow, midSeq = e.now, e.seq
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return midNow, e.now, midSeq, e.seq, iters
	}
	sMidNow, sEndNow, sMidSeq, sEndSeq, sIters := run(false)
	bMidNow, bEndNow, bMidSeq, bEndSeq, bIters := run(true)
	if sMidNow != bMidNow || sMidSeq != bMidSeq {
		t.Errorf("at RunFor deadline: batched (now=%d seq=%d) != slow (now=%d seq=%d)",
			bMidNow, bMidSeq, sMidNow, sMidSeq)
	}
	if sEndNow != bEndNow || sEndSeq != bEndSeq || sIters != bIters {
		t.Errorf("final: batched (now=%d seq=%d iters=%d) != slow (now=%d seq=%d iters=%d)",
			bEndNow, bEndSeq, bIters, sEndNow, sEndSeq, sIters)
	}
}

// TestSpinTracerMidSpin attaches a tracer while a batched spin is in
// flight: from that instant every charge must go through the heap and
// appear in the trace, producing the same schedule/event stream the
// un-batched engine emits.
func TestSpinTracerMidSpin(t *testing.T) {
	run := func(batched bool) (stream []string, finalNow Time, finalSeq uint64) {
		m := NewMachine(Config{Nodes: 1})
		e := m.Engine()
		e.SetBatchedSpins(batched)
		cell := m.NewCell(0, "flag", 0)
		e.After(1*Millisecond, func() {
			e.SetTracer(func(at Time, what string) {
				stream = append(stream, fmt.Sprintf("%d %s", at, what))
			})
		})
		e.After(3*Millisecond, func() { cell.Poke(1) })
		a := &spinAccessor{}
		c := e.Spawn("spinner", func(c *Coro) {
			a.c = c
			spec := &SpinSpec{
				ProbeCell: cell,
				Probe:     func() bool { return cell.Peek() != 0 },
				PauseCost: func() Time { return 400 * Nanosecond },
				MaxIters:  SpinUnbounded,
			}
			c.SpinUntil(a, spec)
		})
		c.Start(0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stream, e.now, e.seq
	}
	sStream, sNow, sSeq := run(false)
	bStream, bNow, bSeq := run(true)
	if bNow != sNow || bSeq != sSeq {
		t.Errorf("batched (now=%d seq=%d) != slow (now=%d seq=%d)", bNow, bSeq, sNow, sSeq)
	}
	if !reflect.DeepEqual(sStream, bStream) {
		t.Errorf("trace streams differ: batched %d records, slow %d", len(bStream), len(sStream))
	}
	if len(sStream) == 0 {
		t.Error("tracer saw no engine occurrences")
	}
}

// TestSpinUnparkAcrossSuspension checks a spin suspended on a charge
// event still unwinds correctly at engine shutdown (Stop mid-spin).
func TestSpinStopMidSpin(t *testing.T) {
	for _, batched := range []bool{false, true} {
		m := NewMachine(Config{Nodes: 1})
		e := m.Engine()
		e.SetBatchedSpins(batched)
		cell := m.NewCell(0, "flag", 0)
		e.After(1*Millisecond, func() { e.Stop() })
		a := &spinAccessor{}
		c := e.Spawn("spinner", func(c *Coro) {
			a.c = c
			spec := &SpinSpec{
				ProbeCell: cell,
				Probe:     func() bool { return cell.Peek() != 0 },
				PauseCost: func() Time { return 100 * Nanosecond },
				MaxIters:  SpinUnbounded,
			}
			c.SpinUntil(a, spec)
		})
		c.Start(0)
		if err := e.Run(); err != nil {
			t.Fatalf("batched=%v: %v", batched, err)
		}
		if e.Live() != 0 {
			t.Errorf("batched=%v: %d coros leaked past shutdown", batched, e.Live())
		}
	}
}

// TestSpinSuspensionAllocFree pins the suspended emulation's state reuse:
// a coro whose every SpinUntil call suspends — a second coro's wakeups
// always sit in the heap ahead of the spinner's next charge — allocates
// nothing per call after the first, which allocates the coro's spin
// state. A returned call must also leave that state zeroed.
func TestSpinSuspensionAllocFree(t *testing.T) {
	m := NewMachine(Config{Nodes: 1})
	e := m.Engine()
	cell := m.NewCell(0, "flag", 0)
	stop := false
	ticker := e.Spawn("ticker", func(c *Coro) {
		for !stop {
			c.Sleep(30 * Nanosecond)
		}
	})
	ticker.Start(0)
	var allocs float64
	calls, suspended := 0, 0
	a := &spinAccessor{}
	c := e.Spawn("spinner", func(c *Coro) {
		a.c = c
		sawSuspension := false
		spec := SpinSpec{
			ProbeCell: cell,
			Probe: func() bool {
				sawSuspension = sawSuspension || c.spinning
				return false
			},
			PauseCost: func() Time { return 100 * Nanosecond },
			MaxIters:  3,
		}
		allocs = testing.AllocsPerRun(50, func() {
			sawSuspension = false
			if iters, ok := c.SpinUntil(a, &spec); iters != 3 || ok {
				t.Errorf("SpinUntil = (%d, %v), want (3, false)", iters, ok)
			}
			calls++
			if sawSuspension {
				suspended++
			}
		})
		if c.spinning || !reflect.DeepEqual(*c.spin, spinState{}) {
			t.Error("spin state not cleared after SpinUntil returned")
		}
		stop = true
	})
	c.Start(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if suspended != calls || calls == 0 {
		t.Fatalf("%d of %d SpinUntil calls suspended; the test needs all of them to", suspended, calls)
	}
	if allocs != 0 {
		t.Errorf("suspended SpinUntil allocated %.1f times per call, want 0", allocs)
	}
}
