package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/simtest"
)

// TestInlineWakeupAdvancesInPlace checks the fast path's visible contract:
// a lone sleeping coro advances the clock without any event traffic, and
// the (now, seq) observables match what the slow path would produce.
func TestInlineWakeupAdvancesInPlace(t *testing.T) {
	run := func(inline bool) (times []Time, seqs []uint64) {
		e := NewEngine()
		e.SetInlineWakeups(inline)
		c := e.Spawn("s", func(c *Coro) {
			for _, d := range []Time{5, 0, 17, 3} {
				c.Sleep(d)
				times = append(times, e.Now())
				seqs = append(seqs, e.seq)
			}
		})
		c.Start(0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return times, seqs
	}
	fastT, fastS := run(true)
	slowT, slowS := run(false)
	for i := range fastT {
		if fastT[i] != slowT[i] || fastS[i] != slowS[i] {
			t.Fatalf("observables diverge at step %d: fast (%v,%d), slow (%v,%d)",
				i, fastT[i], fastS[i], slowT[i], slowS[i])
		}
	}
	if want := []Time{5, 5, 22, 25}; fastT[0] != want[0] || fastT[3] != want[3] {
		t.Fatalf("times = %v, want %v", fastT, want)
	}
}

// TestInlineWakeupYieldsToSameTimeEvents checks the equal-time rule: a
// Sleep whose wakeup coincides with an already-queued event must take the
// slow path so the earlier-scheduled event still fires first.
func TestInlineWakeupYieldsToSameTimeEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func() { order = append(order, "event") })
	c := e.Spawn("s", func(c *Coro) {
		c.Sleep(10) // wakeup at 10, same time as the queued event
		order = append(order, "coro")
	})
	c.Start(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "coro" {
		t.Fatalf("order = %v, want [event coro]", order)
	}
}

// TestInlineWakeupRespectsRunForWindow checks that inline advancement
// cannot carry the clock past the last instant of a window the engine
// loop would have stopped at.
func TestInlineWakeupRespectsRunForWindow(t *testing.T) {
	e := NewEngine()
	var seen []Time
	c := e.Spawn("s", func(c *Coro) {
		for i := 0; i < 4; i++ {
			c.Sleep(4)
			seen = append(seen, e.Now())
		}
	})
	c.Start(0)
	if err := e.runWindow(11); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 8 {
		t.Fatalf("Now = %v after runWindow(11), want 8", e.Now())
	}
	if len(seen) != 2 || seen[0] != 4 || seen[1] != 8 {
		t.Fatalf("wakeups inside window = %v, want [4 8]", seen)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 || seen[3] != 16 {
		t.Fatalf("wakeups after Run = %v, want last at 16", seen)
	}
}

// TestShutdownUnwindsInSpawnOrder checks the deterministic kill path:
// parked coros are unwound in spawn order, every run.
func TestShutdownUnwindsInSpawnOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		var unwound []int
		for i := 0; i < 8; i++ {
			i := i
			c := e.Spawn(fmt.Sprintf("p%d", i), func(c *Coro) {
				defer func() { unwound = append(unwound, i) }()
				c.Park()
			})
			// Start in reverse order to decouple spawn order from start order.
			c.Start(Time(8 - i))
		}
		if err := e.Run(); err == nil {
			t.Fatal("expected deadlock error")
		}
		if len(unwound) != 8 {
			t.Fatalf("trial %d: unwound %d coros, want 8", trial, len(unwound))
		}
		for i, id := range unwound {
			if id != i {
				t.Fatalf("trial %d: unwind order %v, not spawn order", trial, unwound)
			}
		}
	}
}

// runDifferentialWorkload builds a pseudo-random workload from seed — coros
// mixing sleeps of many sizes (zero, tiny, overlapping, disjoint), engine
// callbacks, park/unpark pairs, and mid-run spawns — and executes it in
// one engine mode. Every random value is drawn from per-coro streams
// forked in spawn order and precomputed before any closure is scheduled,
// so every mode consumes randomness identically and any divergence in the
// fingerprint — a line per action, stamped with virtual time and engine
// sequence number, then the final clock and sequence — is a real
// behavioral difference.
func runDifferentialWorkload(t *testing.T, seed uint64, mode simtest.Mode) string {
	t.Helper()
	e := NewEngine()
	mode.Set(e)
	root := NewRNG(seed)
	var fp strings.Builder
	record := func(who string) {
		fmt.Fprintf(&fp, "%s@%d#%d\n", who, e.now, e.seq)
	}

	var body func(name string, r *RNG, steps, depth int) func(*Coro)
	body = func(name string, r *RNG, steps, depth int) func(*Coro) {
		return func(c *Coro) {
			for s := 0; s < steps; s++ {
				switch r.Intn(12) {
				case 0, 1, 2, 3, 4, 5:
					c.Sleep(Time(r.Intn(7))) // often 0 or colliding with others
				case 6:
					c.Sleep(Time(50 + r.Intn(50))) // far ahead: likely inline
				case 7:
					record(name)
				case 8:
					cb := fmt.Sprintf("%s-cb%d", name, s)
					e.After(Time(r.Intn(9)), func() { record(cb) })
				case 9:
					// Park with the unpark event scheduled first; the coro
					// parks before the event can possibly fire.
					d := Time(1 + r.Intn(5))
					wake := Time(r.Intn(3))
					e.After(d, func() { c.Unpark(wake) })
					c.Park()
					record(name + "-unparked")
				case 10:
					if depth < 2 {
						child := fmt.Sprintf("%s.%d", name, s)
						childSteps := 1 + r.Intn(4)
						childStart := Time(r.Intn(6))
						cc := e.Spawn(child, body(child, r.Fork(), childSteps, depth+1))
						cc.Start(childStart)
					} else {
						c.Sleep(Time(r.Intn(4)))
					}
				case 11:
					record(name + "-tick")
					c.Sleep(1)
				}
			}
			record(name + "-done")
		}
	}

	n := 2 + root.Intn(5)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		c := e.Spawn(name, body(name, root.Fork(), 3+root.Intn(10), 0))
		c.Start(Time(root.Intn(4)))
	}
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d %v: %v", seed, mode, err)
	}
	fmt.Fprintf(&fp, "final now=%d seq=%d\n", e.now, e.seq)
	return fp.String()
}

// TestInlineWakeupDifferential runs many random workloads in every engine
// mode and requires identical fingerprints — the engine-level half of the
// "byte-identical simulated metrics" guarantee.
func TestInlineWakeupDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string {
			return runDifferentialWorkload(t, seed, m)
		})
	}
}

// FuzzInlineWakeupDifferential lets the fuzzer hunt for a seed whose
// workload behaves differently in some engine mode.
func FuzzInlineWakeupDifferential(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Add(uint64(1 << 40))
	f.Fuzz(func(t *testing.T, seed uint64) {
		if seed == 0 {
			seed = 1
		}
		simtest.Check(t, simtest.Serial(), func(m simtest.Mode) string {
			return runDifferentialWorkload(t, seed, m)
		})
	})
}
