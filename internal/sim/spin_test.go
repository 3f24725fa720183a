package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simtest"
)

// spinAccessor implements SpinContext for engine-level tests. With a zero
// quantum it accrues plainly with no scheduling boundaries. With a
// quantum it books computation against a slice of that length; at the
// slice's end it starts a fresh slice in place (gap 0) or is descheduled
// for gap and redispatched by a callback — a processor-free stand-in for
// the preempting cthreads implementation, which the cthreads and locks
// differential suites exercise.
type spinAccessor struct {
	c    *Coro
	node int
	busy Time

	quantum, left, gap Time
}

func (a *spinAccessor) Node() int { return a.node }
func (a *spinAccessor) Advance(d Time) {
	if d < 0 {
		d = 0
	}
	if a.quantum <= 0 {
		a.busy += d
		a.c.Sleep(d)
		return
	}
	for {
		step, boundary := a.SpinAccrue(d)
		d -= step
		a.c.Sleep(step)
		if boundary && a.SpinBoundary() {
			a.c.Park()
		}
		if d <= 0 {
			return
		}
	}
}
func (a *spinAccessor) SpinAccrue(d Time) (Time, bool) {
	if a.quantum <= 0 {
		a.busy += d
		return d, false
	}
	step := min(d, a.left)
	a.busy += step
	a.left -= step
	return step, a.left <= 0
}
func (a *spinAccessor) SpinBoundary() bool {
	a.left = a.quantum
	if a.gap <= 0 {
		return false
	}
	c := a.c
	c.eng.After(a.gap, func() { c.Unpark(0) })
	return true
}
func (a *spinAccessor) SpinBudget() Time {
	if a.quantum <= 0 {
		return MaxTime
	}
	return a.left
}

// spinWorkloadParams shapes one differential spin workload.
type spinWorkloadParams struct {
	seed    uint64
	svc     Time // ModuleService
	workers int
	rounds  int
	noise   int // unrelated timer events that cut batching windows
}

// spinFingerprint ends a spin workload's fingerprint: the final clock
// and sequence, the run's error, each spinner's busy time, and each
// module's accesses and queue delay.
func spinFingerprint(fp *strings.Builder, m *Machine, err error, accs []*spinAccessor) string {
	e := m.Engine()
	fmt.Fprintf(fp, "final now=%d seq=%d\nerr %v\n", e.now, e.seq, err)
	for i, a := range accs {
		fmt.Fprintf(fp, "busy %d: %d\n", i, a.busy)
	}
	for n := 0; n < m.Nodes(); n++ {
		fmt.Fprintf(fp, "module %d: accesses=%d queue-delay=%d\n", n, m.ModuleAccesses(n), m.ModuleQueueDelay(n))
	}
	return fp.String()
}

// runSpinWorkload drives a token-passing ring through SpinUntil: worker i
// busy-waits (charged probes of the shared token cell, fixed per-round
// pauses drawn from a forked RNG) for the token values congruent to i,
// does some work, and passes the token on with a charged store. Workers
// start staggered, so the early phase has solitary spinners (batching
// windows) and the steady state has all workers' charges interleaving
// (per-event emulation). Bounded pre-spins exercise MaxIters exhaustion.
func runSpinWorkload(tb testing.TB, p spinWorkloadParams, mode simtest.Mode) string {
	tb.Helper()
	m := NewMachine(Config{Nodes: 3, ModuleService: p.svc, Seed: p.seed})
	e := m.Engine()
	mode.Set(e)
	token := m.NewCell(0, "token", 0)
	var fp strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&fp, "%d/%d ", e.now, e.seq)
		fmt.Fprintf(&fp, format+"\n", args...)
	}
	for i := 0; i < p.noise; i++ {
		e.At(Time(i+1)*537*Microsecond, func() {})
	}
	rng := NewRNG(p.seed)
	accs := make([]*spinAccessor, p.workers)
	for i := range accs {
		i := i
		r := rng.Fork()
		a := &spinAccessor{node: i % m.Nodes()}
		accs[i] = a
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
	}
	return spinFingerprint(&fp, m, e.Run(), accs)
}

func TestSpinUntilDifferential(t *testing.T) {
	for _, svc := range []Time{0, 400 * Nanosecond} {
		t.Run(fmt.Sprintf("svc=%v", svc), func(t *testing.T) {
			p := spinWorkloadParams{seed: 7, svc: svc, workers: 3, rounds: 3, noise: 2}
			simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string { return runSpinWorkload(t, p, m) })
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
		simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string { return runSpinWorkload(t, p, m) })
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
		return iters, e.now, e.seq, e.stats.MemberCommits, e.stats.BatchedIters
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

// TestSpinLongEpoch spins a bounded loop far longer than one commit may
// span (maxSpinWindow), with nothing else in the engine: the fast path
// commits it in window-sized steps and must end exactly where the
// per-iteration path's closed form puts it — MaxIters probe-plus-pause
// iterations, then the final probe — which the slow path confirms at a
// small bound.
func TestSpinLongEpoch(t *testing.T) {
	const probe, pause = 600 * Nanosecond, 2000 * Nanosecond
	run := func(batched bool, maxIters int64) (now Time, seq uint64) {
		m := NewMachine(Config{Nodes: 1})
		e := m.Engine()
		e.SetBatchedSpins(batched)
		cell := m.NewCell(0, "flag", 0)
		a := &spinAccessor{}
		c := e.Spawn("spinner", func(c *Coro) {
			a.c = c
			spec := &SpinSpec{
				ProbeCell: cell,
				Probe:     func() bool { return false },
				PauseCost: func() Time { return pause },
				MaxIters:  maxIters,
			}
			if iters, ok := c.SpinUntil(a, spec); iters != maxIters || ok {
				t.Errorf("SpinUntil = (%d, %v), want (%d, false)", iters, ok, maxIters)
			}
		})
		c.Start(0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.now, e.seq
	}
	want := func(k int64) (Time, uint64) { return Time(k)*(probe+pause) + probe, uint64(2*k + 2) }
	now, seq := run(false, 50)
	if wn, ws := want(50); now != wn || seq != ws {
		t.Fatalf("slow path at 50 iterations: (now, seq) = (%d, %d), closed form says (%d, %d)", now, seq, wn, ws)
	}
	const k = 1_000_000_000 // 2.6e15 ns of spinning: thousands of maxSpinWindow commits
	now, seq = run(true, k)
	if wn, ws := want(k); now != wn || seq != ws {
		t.Errorf("batched: (now, seq) = (%d, %d), want (%d, %d)", now, seq, wn, ws)
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

// stoppingAccessor stops its engine once it has accrued limit.
type stoppingAccessor struct {
	spinAccessor
	limit Time
}

func (a *stoppingAccessor) SpinAccrue(d Time) (Time, bool) {
	step, boundary := a.spinAccessor.SpinAccrue(d)
	if a.busy >= a.limit {
		a.c.eng.Stop()
	}
	return step, boundary
}

// TestSpinHangStaysObservable spins on a word no one will ever release,
// with nothing else pending: the per-charge engine would spin forever,
// so the lane must hand the spinner back one charge at a time rather
// than pass its pops with no end in sight. The accessor stops the run
// once it has accrued a millisecond, which Run must then reach.
func TestSpinHangStaysObservable(t *testing.T) {
	m := NewMachine(Config{Nodes: 1})
	e := m.Engine()
	cell := m.NewCell(0, "held", 1)
	a := &stoppingAccessor{limit: Millisecond}
	c := e.Spawn("spinner", func(c *Coro) {
		a.c = c
		spec := &SpinSpec{
			ProbeCell: cell,
			Probe:     func() bool { return cell.Peek() == 0 },
			PauseCost: func() Time { return 400 * Nanosecond },
			MaxIters:  SpinUnbounded,
		}
		c.SpinUntil(a, spec)
	})
	c.Start(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() < Millisecond-2*Microsecond || e.Stats().EvictOwn < 100 {
		t.Errorf("stopped at %v after %d single-charge hand-backs: want about 1ms, one charge at a time",
			e.Now(), e.Stats().EvictOwn)
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

// epochParams shapes one spin-epoch differential workload.
type epochParams struct {
	seed     uint64
	spinners int  // 1–16
	cells    int  // lock words; spinner i waits on cell i mod cells
	svc      Time // ModuleService
	lockstep bool // equal pauses, nodes and start times: tied (when, at) chains
	quantum  Time // spinners' slice budget; 0 = none
	gap      Time // descheduled time at a slice boundary; 0 = absorbed in place
	deadline Time // RunFor split point; 0 = one plain Run

	// Local-harm shapes: occurrences that leave most spinners' cells
	// alone.
	busy     bool // non-spinners on other nodes that dispatch often and touch no probe cell
	writer   bool // a coro that writes c0 with its own value, then with new held values and back
	volatile bool // spinner 1's pause reads a Go variable that a non-spinner changes
	late     bool // cells other than c0 are freed only late: a long stretch with one cell written

	// Lazy-member shapes: occurrences that pass or land on members' pops.
	sleeper bool // a coro sleeping inline across many member pops
	ticks   bool // a coro and callbacks on the 300ns grid, where lockstep members pop
	stop    bool // a callback stops the first run mid-epoch; Run resumes it
	reader  bool // callbacks read every spinner's busy time and every module's counters
}

// runEpochWorkload drives many concurrent spinners through SpinUntil so
// that spin epochs hold several members at once. Every cell starts held.
// A non-spinner coro releases cell 0 mid-epoch with a charged store, and
// callbacks release the others; whoever then probes a free cell takes it
// (a test-and-set probe), holds it for a while and releases it with a
// charged store, so shared cells pass from spinner to spinner. Each
// spinner first spins with a small MaxIters and, if that exhausts, spins
// again unbounded. Lockstep mode gives every spinner the same node,
// pause and start time, so their charges tie on (when, at) and the
// commit must order them as the per-charge engine would; otherwise
// pauses and distances differ. Every fourth spinner declares no probe
// cell, so its iterations are a pause alone. A RunFor deadline, when
// set, splits the run mid-epoch. The local-harm shapes add busy
// non-spinners and callbacks that touch no cell, a writer whose stores
// to c0 alternate between its current value (no harm) and new held
// values, a volatile spinner beside persistent ones, and a late release
// of every cell but c0.
func runEpochWorkload(tb testing.TB, p epochParams, mode simtest.Mode) (string, epochCounts) {
	tb.Helper()
	const nodes = 4
	m := NewMachine(Config{Nodes: nodes, ModuleService: p.svc, Seed: p.seed})
	e := m.Engine()
	mode.Set(e)
	var fp strings.Builder
	var counts epochCounts
	logf := func(format string, args ...any) {
		fmt.Fprintf(&fp, "%d/%d ", e.now, e.seq)
		fmt.Fprintf(&fp, format+"\n", args...)
	}
	rng := NewRNG(p.seed)
	cells := make([]*Cell, p.cells)
	for j := range cells {
		node := j % nodes
		if p.lockstep {
			node = 0
		}
		cells[j] = m.NewCell(node, fmt.Sprintf("c%d", j), 1)
	}
	rel := &spinAccessor{node: 0}
	releaser := e.Spawn("releaser", func(c *Coro) {
		rel.c = c
		rel.Advance(Time(50+rng.Intn(400)) * Microsecond)
		cells[0].Store(rel, 0)
		logf("releaser freed c0")
	})
	releaser.Start(0)
	for j := 1; j < len(cells); j++ {
		cell := cells[j]
		at := Time(100+rng.Intn(1500)) * Microsecond
		if p.late {
			at += 3 * Millisecond
		}
		e.At(at, func() {
			cell.Poke(0)
			logf("callback freed %s", cell.Name())
		})
	}
	if p.busy {
		for b := 0; b < 3; b++ {
			r := rng.Fork()
			a := &spinAccessor{node: (b + 1) % nodes}
			busy := e.Spawn(fmt.Sprintf("busy%d", b), func(c *Coro) {
				a.c = c
				for k := 0; k < 400; k++ {
					a.Advance(Time(200+r.Intn(3000)) * Nanosecond)
				}
				logf("busy%d done", b)
			})
			busy.Start(Time(b) * Microsecond)
			for k := 0; k < 40; k++ {
				e.At(Time(10+r.Intn(2000))*Microsecond, func() {})
			}
		}
	}
	if p.writer {
		r := rng.Fork()
		a := &spinAccessor{node: 2}
		w := e.Spawn("writer", func(c *Coro) {
			a.c = c
			c0 := cells[0]
			for k := 0; k < 60; k++ {
				a.Advance(Time(5+r.Intn(40)) * Microsecond)
				switch k % 4 {
				case 0:
					c0.AtomicOr(a, 0) // rewrites the current value
				case 1:
					c0.CompareAndSwap(a, 1, 1) // rewrites a held word
				case 2:
					c0.CompareAndSwap(a, 1, 3) // a new value, still held
				case 3:
					c0.CompareAndSwap(a, 3, 1) // and back
				}
			}
			logf("writer done c0=%d", c0.Peek())
		})
		w.Start(0)
	}
	if p.writer {
		// A write restored within one instant: invisible to every member.
		e.At(Time(20+rng.Intn(200))*Microsecond, func() {
			v := cells[0].Peek()
			cells[0].Poke(v ^ 2)
			cells[0].Poke(v)
		})
	}
	if p.sleeper {
		a := &spinAccessor{node: 3}
		s := e.Spawn("sleeper", func(c *Coro) {
			a.c = c
			for k := 0; k < 30; k++ {
				a.Advance(Time(40+k) * Microsecond)
			}
			logf("sleeper done")
		})
		s.Start(0)
	}
	if p.ticks {
		a := &spinAccessor{node: 2}
		tk := e.Spawn("ticker", func(c *Coro) {
			a.c = c
			for k := 0; k < 2000; k++ {
				a.Advance(300 * Nanosecond)
			}
			logf("ticker done")
		})
		tk.Start(0)
		for k := 0; k < 60; k++ {
			e.At(Time(rng.Intn(20000))*300*Nanosecond, func() {})
		}
	}
	if p.stop {
		e.At(Time(30+rng.Intn(300))*Microsecond, e.Stop)
	}
	var accs []*spinAccessor
	if p.reader {
		for k := 0; k < 12; k++ {
			e.At(Time(5+rng.Intn(800))*Microsecond, func() {
				e.SyncSpins()
				fmt.Fprintf(&fp, "%d/%d read", e.now, e.seq)
				for _, a := range accs {
					fmt.Fprintf(&fp, " %d", a.busy)
				}
				for n := 0; n < nodes; n++ {
					fmt.Fprintf(&fp, " %d:%d", m.ModuleAccesses(n), m.ModuleQueueDelay(n))
				}
				fp.WriteString("\n")
			})
		}
	}
	var extra Time // read by the volatile spinner's pause
	if p.volatile {
		r := rng.Fork()
		a := &spinAccessor{node: 3}
		bump := e.Spawn("bumper", func(c *Coro) {
			a.c = c
			for k := 0; k < 50; k++ {
				a.Advance(Time(10+r.Intn(60)) * Microsecond)
				extra = Time(k%5) * 100 * Nanosecond
			}
		})
		bump.Start(0)
	}
	accs = make([]*spinAccessor, p.spinners)
	for i := range accs {
		i := i
		r := rng.Fork()
		cell := cells[i%len(cells)]
		node, pause, start := 1, Time(300)*Nanosecond, Time(0)
		if !p.lockstep {
			node = i % nodes
			pause = Time(100+r.Intn(900)) * Nanosecond
			start = Time(r.Intn(40)) * Microsecond
		}
		a := &spinAccessor{node: node, quantum: p.quantum, left: p.quantum, gap: p.gap}
		accs[i] = a
		probe := func() bool {
			old := cell.Peek()
			cell.Poke(old | 1)
			return old == 0
		}
		maxIters := int64(r.Intn(40))
		c := e.Spawn(fmt.Sprintf("s%d", i), func(c *Coro) {
			a.c = c
			spec := &SpinSpec{
				ProbeCell: cell, ProbeAtomic: i%3 != 0,
				Probe: probe, PauseCost: func() Time { return pause },
				MaxIters: maxIters,
			}
			if p.volatile && i == 1 {
				spec.Volatile = true
				spec.PauseCost = func() Time { return pause + extra }
			}
			if i%4 == 3 {
				spec.ProbeCell = nil // probes uncharged state: one charge per iteration
			}
			iters, ok := c.SpinUntil(a, spec)
			counts.iters += uint64(iters)
			logf("s%d bounded iters=%d ok=%v", i, iters, ok)
			if !ok {
				spec.MaxIters = SpinUnbounded
				iters, ok = c.SpinUntil(a, spec)
				counts.iters += uint64(iters)
				logf("s%d unbounded iters=%d ok=%v", i, iters, ok)
			}
			a.Advance(Time(5+r.Intn(60)) * Microsecond)
			cell.Store(a, 0)
			logf("s%d released %s", i, cell.Name())
		})
		c.Start(start)
	}
	var err error
	if p.stop {
		err = e.RunFor(10 * Millisecond)
		logf("stopped pending=%d", e.Pending())
	}
	if p.deadline > 0 && err == nil {
		err = e.RunFor(p.deadline)
		logf("deadline pending=%d", e.Pending())
	}
	if runErr := e.Run(); err == nil {
		err = runErr
	}
	counts.Stats = e.Stats()
	return spinFingerprint(&fp, m, err, accs), counts
}

// epochCounts are an epoch workload's engine mechanism counters. They
// depend on the engine mode, so the fingerprint leaves them out; iters
// is the total the spinners' SpinUntil calls returned.
type epochCounts struct {
	Stats
	iters uint64
}

// epochFuzzParams maps raw fuzz inputs onto a workload.
func epochFuzzParams(seed uint64, spinners, cells, flags, svcUnits, quantumUnits uint8, deadlineUnits uint16) epochParams {
	p := epochParams{
		seed:     seed%1000 + 1,
		spinners: int(spinners%16) + 1,
		svc:      Time(svcUnits%8) * 300 * Nanosecond,
		lockstep: flags&1 != 0,
		deadline: Time(deadlineUnits%2000) * Microsecond,
	}
	p.cells = int(cells)%p.spinners + 1
	if flags&2 != 0 {
		p.cells = p.spinners // every spinner on a private cell
	}
	p.busy, p.writer = flags&8 != 0, flags&16 != 0
	p.volatile, p.late = flags&32 != 0, flags&64 != 0
	p.sleeper, p.ticks = svcUnits&8 != 0, svcUnits&16 != 0
	p.stop, p.reader = svcUnits&32 != 0, svcUnits&64 != 0
	if q := Time(quantumUnits % 8); q > 0 {
		p.quantum = q * 50 * Microsecond
		if flags&4 != 0 {
			p.gap = Time(10+quantumUnits%32) * Microsecond
		}
	}
	return p
}

// FuzzSpinEpochDifferential drives many concurrent spinners — private
// and shared cells, lockstep chains with tied (when, at), unequal
// lengths, module contention on and off, MaxIters, slice budgets, a
// RunFor deadline mid-epoch, a non-spinner releasing a cell mid-epoch,
// the local-harm shapes: busy non-spinners, same-value and new-value
// writes (one restored within an instant, others only after members
// popped), a volatile spinner, one cell written for a long stretch —
// and the lazy-member shapes: a body sleeping inline across many member
// pops, a ticker and callbacks landing exactly on lockstep members'
// pops, a Stop mid-epoch, and mid-run reads of busy time and module
// counters — through every engine mode, requiring identical (now,
// seq)-stamped logs, busy accrual, and module-contention accounting.
// Seeds #7 and #8 are TestSpinEpochEngages's workloads, #9 to #12 its
// local-harm ones.
func FuzzSpinEpochDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(7), uint8(3), uint8(0), uint8(0), uint16(0))
	f.Add(uint64(2), uint8(15), uint8(3), uint8(1), uint8(0), uint8(0), uint16(300))
	f.Add(uint64(3), uint8(11), uint8(4), uint8(0), uint8(2), uint8(0), uint16(0))
	f.Add(uint64(4), uint8(7), uint8(7), uint8(2), uint8(3), uint8(2), uint16(0))
	f.Add(uint64(5), uint8(9), uint8(2), uint8(4), uint8(0), uint8(3), uint16(700))
	f.Add(uint64(6), uint8(5), uint8(5), uint8(7), uint8(1), uint8(1), uint16(90))
	f.Add(uint64(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint64(10), uint8(7), uint8(7), uint8(2), uint8(0), uint8(0), uint16(0))
	f.Add(uint64(10), uint8(7), uint8(7), uint8(3), uint8(0), uint8(0), uint16(0))
	for _, flags := range localHarmFlags {
		f.Add(uint64(12), uint8(7), uint8(7), flags, uint8(0), uint8(0), uint16(0))
	}
	f.Add(uint64(13), uint8(9), uint8(3), uint8(8|16|32|64|4), uint8(2), uint8(3), uint16(500))
	// The lazy-member shapes (svcUnits bits 3–6): an inline sleeper, the
	// 300ns ticker in lockstep, lockstep members on several cells with c0
	// written, a Stop and a RunFor deadline with state reads, and all of
	// them on the hot-spot module model.
	f.Add(uint64(14), uint8(7), uint8(7), uint8(2), uint8(8), uint8(0), uint16(0))
	f.Add(uint64(15), uint8(7), uint8(3), uint8(1), uint8(16), uint8(0), uint16(0))
	f.Add(uint64(16), uint8(7), uint8(3), uint8(1|16), uint8(8|64), uint8(0), uint16(0))
	f.Add(uint64(17), uint8(9), uint8(4), uint8(16|32), uint8(32|64), uint8(2), uint16(400))
	f.Add(uint64(18), uint8(11), uint8(5), uint8(1|8|16), uint8(2|8|16|32|64), uint8(3), uint16(900))
	f.Fuzz(func(t *testing.T, seed uint64, spinners, cells, flags, svcUnits, quantumUnits uint8, deadlineUnits uint16) {
		p := epochFuzzParams(seed, spinners, cells, flags, svcUnits, quantumUnits, deadlineUnits)
		simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string {
			fp, _ := runEpochWorkload(t, p, m)
			return fp
		})
	})
}

// localHarmFlags are the local-harm workload shapes (see epochParams),
// each on private cells: busy non-spinners; the writer; the volatile
// spinner beside the bumper; one cell written while the rest wait late.
var localHarmFlags = []uint8{2 | 8, 2 | 16, 2 | 8 | 32, 2 | 16 | 64}

// TestSpinEpochEngages proves spin epochs hold several lazy members at
// once — with unequal lengths and in lockstep — and that their
// closed-form charges account for most of the iterations, so
// FuzzSpinEpochDifferential, whose seeds #7 and #8 are these workloads,
// does not pass vacuously: with unequal lengths other coros pass members'
// pops inline, and in lockstep members tie and leave the lane together,
// ordered as the per-charge engine orders them. Its local-harm seeds
// must show members outliving dispatches and callbacks, same-value
// writes leaving them in place, and the volatile spinner evicted.
func TestSpinEpochEngages(t *testing.T) {
	for _, lockstep := range []bool{false, true} {
		name := fmt.Sprintf("lockstep=%v", lockstep)
		p := epochParams{seed: 11, spinners: 8, cells: 8, lockstep: lockstep}
		_, got := runEpochWorkload(t, p, simtest.Mode{Inline: true, Batched: true})
		if lockstep && (got.SharedCommits == 0 || got.EvictTie == 0) {
			t.Errorf("%s: no members left the lane together at a tie", name)
		}
		if !lockstep && got.LanePassed == 0 {
			t.Errorf("%s: no inline advance passed a member's pops", name)
		}
		if got.iters < 1000 {
			t.Errorf("%s: workload too small to be meaningful: %d iters", name, got.iters)
		}
		if got.BatchedIters < got.iters*3/4 {
			t.Errorf("%s: commits skipped only %d of %d iterations", name, got.BatchedIters, got.iters)
		}
	}
	for _, flags := range localHarmFlags {
		p := epochFuzzParams(12, 7, 7, flags, 0, 0, 0)
		_, got := runEpochWorkload(t, p, simtest.Mode{Inline: true, Batched: true})
		if got.LaneSurvivals <= got.Dispatches {
			t.Errorf("flags %#x: lane members survived %d dispatches and callbacks over %d dispatches: want more",
				flags, got.LaneSurvivals, got.Dispatches)
		}
		if p.writer && got.EvictCell == 0 {
			t.Errorf("flags %#x: the writer's new values evicted no member", flags)
		}
	}
}
