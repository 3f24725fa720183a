package sim

import (
	"strconv"
	"testing"
)

// BenchmarkEngineEventThroughput measures raw event dispatch rate.
func BenchmarkEngineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	e.After(1, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventQueueCycle measures the heap alone at a steady size: each
// op pops the minimum and pushes a replacement a pseudo-random delay
// later, as a simulation's schedule-dispatch cycle does. 8 entries is a
// few threads' wakeups; 1024 is the sharded ring's per-shard heaps.
func BenchmarkEventQueueCycle(b *testing.B) {
	for _, size := range []int{8, 1024} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			rng := NewRNG(1)
			var delays [1024]Time
			for i := range delays {
				delays[i] = Time(1 + rng.Intn(2*size))
			}
			var q eventQueue
			seq := uint64(0)
			for i := 0; i < size; i++ {
				seq++
				q.push(delays[i], 0, seq, nil, nil)
			}
			var ev event
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.pop(&ev)
				seq++
				q.push(ev.when+delays[i&1023], ev.when, seq, nil, nil)
			}
		})
	}
}

// BenchmarkCoroSwitch measures one coroutine round trip (sleep + resume),
// the unit cost of everything the simulator does.
func BenchmarkCoroSwitch(b *testing.B) {
	e := NewEngine()
	c := e.Spawn("bench", func(c *Coro) {
		for i := 0; i < b.N; i++ {
			c.Sleep(1)
		}
	})
	c.Start(0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCoroSwitchSlowPath measures the same round trip with inline
// self-wakeups disabled: the allocation-free heap cycle plus the
// coroutine switch there and back that every Sleep paid before the fast
// path existed.
func BenchmarkCoroSwitchSlowPath(b *testing.B) {
	e := NewEngine()
	e.SetInlineWakeups(false)
	c := e.Spawn("bench", func(c *Coro) {
		for i := 0; i < b.N; i++ {
			c.Sleep(1)
		}
	})
	c.Start(0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCoroHandoff measures one real handoff — Engine.dispatch into a
// coro and its yield back — with nothing on the fast paths: two coros
// ping-pong through Park and Unpark(0), so every iteration is one
// dispatch of a parked coro.
func BenchmarkCoroHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	var cs [2]*Coro
	for i := range cs {
		other := &cs[1-i]
		cs[i] = e.Spawn("pingpong", func(c *Coro) {
			for ; n > 0; n-- {
				if (*other).Parked() {
					(*other).Unpark(0)
				}
				c.Park()
			}
			if (*other).Parked() {
				(*other).Unpark(0)
			}
		})
		cs[i].Start(0)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnLifecycle measures 64 coros' whole lives on a fresh
// engine: Spawn, Start, a sleep that switches out and back, the finish,
// and the workers' return to the idle pool.
func BenchmarkSpawnLifecycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 64; j++ {
			e.Spawn("life", func(c *Coro) { c.Sleep(1) }).Start(0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellAtomicOr measures the simulated atomic primitive including
// its latency charge.
func BenchmarkCellAtomicOr(b *testing.B) {
	m := NewMachine(Config{Nodes: 2})
	cell := m.NewCell(0, "x", 0)
	c := m.Engine().Spawn("bench", func(c *Coro) {
		a := &coroAccessor{c: c}
		for i := 0; i < b.N; i++ {
			cell.AtomicOr(a, 1)
			cell.Poke(0)
		}
	})
	c.Start(0)
	b.ResetTimer()
	if err := m.Engine().Run(); err != nil {
		b.Fatal(err)
	}
}

// coroAccessor adapts a bare Coro to the Accessor interface for benches.
type coroAccessor struct{ c *Coro }

func (a *coroAccessor) Node() int      { return 0 }
func (a *coroAccessor) Advance(d Time) { a.c.Sleep(d) }

// benchSpin runs one bounded busy-wait of b.N futile probes against a
// flag nobody sets, with the spin-epoch fast path on or off.
func benchSpin(b *testing.B, batched bool) {
	b.ReportAllocs()
	m := NewMachine(Config{Nodes: 1})
	e := m.Engine()
	e.SetBatchedSpins(batched)
	cell := m.NewCell(0, "flag", 0)
	a := &spinAccessor{}
	c := e.Spawn("bench", func(c *Coro) {
		a.c = c
		spec := &SpinSpec{
			ProbeCell: cell,
			Probe:     func() bool { return cell.Peek() != 0 },
			PauseCost: func() Time { return 100 * Nanosecond },
			MaxIters:  int64(b.N),
		}
		c.SpinUntil(a, spec)
	})
	c.Start(0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpinBatched measures a futile probe with spin batching: after
// the two-iteration steady-state proof, the engine commits the remaining
// iterations in closed form, so per-iteration cost is near zero.
func BenchmarkSpinBatched(b *testing.B) { benchSpin(b, true) }

// BenchmarkSpinSlowPath measures the same loop per-iteration: one probe
// charge and one pause per futile probe, the cost every spin paid before
// batching existed.
func BenchmarkSpinSlowPath(b *testing.B) { benchSpin(b, false) }

// BenchmarkSpinEpoch measures spin epochs: N independent spinners, each
// busy-waiting on its own never-set flag for its share of b.N futile
// probes, with unequal pauses so their charges interleave, while a
// callback every 100 µs bounds each commit. One op is one simulated
// iteration; the engine commits all N spinners together between
// callbacks, and since the callbacks touch no flag the spinners stay
// members across them.
func BenchmarkSpinEpoch(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			m := NewMachine(Config{Nodes: n})
			e := m.Engine()
			done := 0
			var tick func()
			tick = func() {
				if done < n {
					e.After(100*Microsecond, tick)
				}
			}
			e.After(100*Microsecond, tick)
			for i := 0; i < n; i++ {
				cell := m.NewCell(i, "flag", 0)
				iters := b.N / n
				if i < b.N%n {
					iters++
				}
				pause := Time(100+10*i) * Nanosecond
				a := &spinAccessor{node: i}
				c := e.Spawn("spinner", func(c *Coro) {
					a.c = c
					spec := &SpinSpec{
						ProbeCell: cell,
						Probe:     func() bool { return cell.Peek() != 0 },
						PauseCost: func() Time { return pause },
						MaxIters:  int64(iters),
					}
					c.SpinUntil(a, spec)
					done++
				})
				c.Start(0)
			}
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
