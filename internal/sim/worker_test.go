//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simtest"
)

// idleWorkers reports the idle pool's size.
func idleWorkers() int {
	idlePool.mu.Lock()
	defer idlePool.mu.Unlock()
	return len(idlePool.ws)
}

// lastIdleWorker returns the worker the next getWorker will hand out.
func lastIdleWorker() *worker {
	idlePool.mu.Lock()
	defer idlePool.mu.Unlock()
	if len(idlePool.ws) == 0 {
		return nil
	}
	return idlePool.ws[len(idlePool.ws)-1]
}

// drainIdleWorkers stops every idle worker, leaving the pool empty.
func drainIdleWorkers() {
	idlePool.mu.Lock()
	ws := idlePool.ws
	idlePool.ws = nil
	idlePool.mu.Unlock()
	for _, w := range ws {
		w.stop()
	}
}

// busyGoroutines counts goroutines other than parked idle workers. With
// want >= 0 it waits for the count to reach want, giving up after a
// second. With want < 0 it waits for the count to settle: the same over
// settleSamples consecutive 1 ms samples. A goroutine that is already
// exiting, such as an earlier test's tRunner in runtime.goexit1, can
// stay counted for a while on a loaded host, so two equal samples are
// not enough: a baseline that includes it makes the test's later exact
// comparison fail once it is gone.
func busyGoroutines(want int) int {
	const settleSamples = 20
	count := func() int { return runtime.NumGoroutine() - idleWorkers() }
	n, same := count(), 0
	for i := 0; i < 1000 && n != want && (want >= 0 || same < settleSamples); i++ {
		time.Sleep(time.Millisecond)
		prev := n
		if n = count(); n == prev {
			same++
		} else {
			same = 0
		}
	}
	return n
}

// coroEnding is one way a coro's body can stop. start spawns the coro on
// e (scheduling it or not) and returns it.
type coroEnding struct {
	name    string
	start   func(e *Engine) *Coro
	wantErr func(error) bool
}

var coroEndings = []coroEnding{
	{"finish", func(e *Engine) *Coro {
		c := e.Spawn("finish", func(c *Coro) { c.Sleep(5) })
		c.Start(0)
		return c
	}, func(err error) bool { return err == nil }},
	{"panic", func(e *Engine) *Coro {
		c := e.Spawn("panic", func(c *Coro) {
			c.Sleep(5)
			panic("boom")
		})
		c.Start(0)
		return c
	}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "boom") }},
	{"killed-deadlock", func(e *Engine) *Coro {
		c := e.Spawn("parked", func(c *Coro) { c.Park() })
		c.Start(0)
		return c
	}, func(err error) bool { return errors.Is(err, ErrDeadlock) }},
	{"killed-stop", func(e *Engine) *Coro {
		c := e.Spawn("stopped", func(c *Coro) {
			c.Sleep(1)
			c.Engine().Stop()
			c.Sleep(100)
		})
		c.Start(0)
		return c
	}, func(err error) bool { return err == nil }},
	{"never-started", func(e *Engine) *Coro {
		return e.Spawn("unstarted", func(c *Coro) { panic("unstarted coro ran") })
	}, func(err error) bool { return errors.Is(err, ErrDeadlock) }},
}

// TestWorkerReuseWithoutStaleState ends a coro each possible way, then
// has a fresh engine on another goroutine spawn a coro that must run on
// the very worker just released, from a clean slate: its own name and
// body, no kill flag, every switch and wakeup intact.
func TestWorkerReuseWithoutStaleState(t *testing.T) {
	for _, end := range coroEndings {
		t.Run(end.name, func(t *testing.T) {
			e := NewEngine()
			old := end.start(e)
			if err := e.Run(); !end.wantErr(err) {
				t.Fatalf("Run: unexpected error %v", err)
			}
			if !old.Done() || old.w != nil || e.Live() != 0 {
				t.Fatalf("ended coro: done=%v worker=%v live=%d, want done, unbound, 0 live",
					old.Done(), old.w, e.Live())
			}
			w := lastIdleWorker()
			if w == nil || w.c != nil {
				t.Fatalf("released worker %v not idle and unassigned", w)
			}

			var (
				got    *worker
				killed bool
				name   string
				starts int
				at     []Time
				err    error
				f      *Engine
				c      *Coro
			)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				f = NewEngine()
				c = f.Spawn("fresh", func(c *Coro) {
					starts++
					got, killed, name = c.w, c.killed, c.Name()
					c.Sleep(3)
					at = append(at, c.Now())
					c.Park()
					at = append(at, c.Now())
					c.Sleep(2)
					at = append(at, c.Now())
				})
				f.At(4, func() { c.Unpark(1) })
				c.Start(0)
				err = f.Run()
			}()
			wg.Wait()
			if err != nil {
				t.Fatalf("reusing engine: %v", err)
			}
			if got != w {
				t.Fatalf("fresh coro ran on worker %p, want the released %p", got, w)
			}
			if killed {
				t.Fatal("fresh coro started with the kill flag set")
			}
			if want := []Time{3, 5, 7}; fmt.Sprint(at) != fmt.Sprint(want) {
				t.Fatalf("fresh coro woke at %v, want %v", at, want)
			}
			if starts != 1 || name != "fresh" || !c.Done() || c.w != nil || f.Live() != 0 {
				t.Fatalf("fresh coro: %d starts as %q, done=%v worker=%v live=%d; want one start as \"fresh\", done, unbound, 0 live",
					starts, name, c.Done(), c.w, f.Live())
			}
			if lastIdleWorker() != w {
				t.Fatal("worker not returned to the pool after its second body")
			}
		})
	}
}

// TestWorkersDoNotLeakGoroutines runs engines whose coros end every
// possible way, serial and sharded: afterwards every goroutine the runs
// started is either gone or parked in the idle pool.
func TestWorkersDoNotLeakGoroutines(t *testing.T) {
	base := busyGoroutines(-1)
	for round := 0; round < 3; round++ {
		for _, end := range coroEndings {
			e := NewEngine()
			for i := 0; i < 10; i++ {
				end.start(e)
			}
			if err := e.Run(); !end.wantErr(err) {
				t.Fatalf("round %d, %s: unexpected error %v", round, end.name, err)
			}
		}
		mode := simtest.Mode{Shards: 4, Workers: 2, Inline: true, Batched: true}
		runShardedRing(t, ringParams{seed: 3, nodes: 8, rounds: 2}, topoFor(Config{Nodes: 8, Seed: 3}, mode))
	}
	if got := busyGoroutines(base); got != base {
		t.Fatalf("%d goroutines besides idle workers after the runs, want the baseline %d", got, base)
	}
}

// TestWorkerPoolCap keeps more coros alive at once than the pool holds:
// once they finish the pool is full and the surplus workers are stopped,
// their goroutines gone.
func TestWorkerPoolCap(t *testing.T) {
	drainIdleWorkers()
	base := busyGoroutines(-1)
	e := NewEngine()
	cs := make([]*Coro, maxIdleWorkers+16)
	for i := range cs {
		cs[i] = e.Spawn(fmt.Sprintf("c%d", i), func(c *Coro) { c.Park() })
		cs[i].Start(0)
	}
	e.At(1, func() {
		if got := runtime.NumGoroutine(); got < base+len(cs) {
			t.Errorf("%d goroutines with %d coros parked, want at least %d", got, len(cs), base+len(cs))
		}
		for _, c := range cs {
			c.Unpark(0)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := idleWorkers(); got != maxIdleWorkers {
		t.Fatalf("idle pool holds %d workers, want the cap %d", got, maxIdleWorkers)
	}
	if got := busyGoroutines(base); got != base {
		t.Fatalf("%d goroutines besides idle workers, want %d: surplus workers were not stopped", got, base)
	}
}

// TestWorkerPoolConcurrentEngines spawns and finishes coros on engines
// running on separate goroutines at once, all drawing on the one pool,
// and runs a sharded ring whose window pool goroutines — fresh ones every
// window — resume the same coros in turn. Under -race this checks the
// pool's locking and iter.Pull's cross-goroutine handoff.
func TestWorkerPoolConcurrentEngines(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				e := NewEngine()
				e.SetInlineWakeups(false)
				steps := 0
				for i := 0; i < 8; i++ {
					d := Time(i + 1)
					e.Spawn(fmt.Sprintf("g%d/c%d", g, i), func(c *Coro) {
						for k := 0; k < 3; k++ {
							c.Sleep(d)
							steps++
						}
					}).Start(0)
				}
				if err := e.Run(); err != nil {
					errs[g] = err
					return
				}
				if steps != 24 {
					errs[g] = fmt.Errorf("round %d: %d steps, want 24", r, steps)
					return
				}
			}
		}(g)
	}
	p := ringParams{seed: 9, nodes: 8, rounds: 3, svc: 400 * Nanosecond}
	cfg := Config{Nodes: p.nodes, ModuleService: p.svc, Seed: 2}
	ref := runShardedRing(t, p, topoFor(cfg, simtest.Mode{}))
	mode := simtest.Mode{Shards: 2, Workers: 2, Inline: true, Batched: true}
	if got := runShardedRing(t, p, topoFor(cfg, mode)); got != ref {
		t.Errorf("the ring in %v diverges from the serial oracle", mode)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("engine goroutine %d: %v", g, err)
		}
	}
}

// TestGoexitInCoroReachesRunCaller: runtime.Goexit inside a coro (what
// t.Fatal does) ends the goroutine that called Run instead of being
// absorbed as an ordinary finish.
func TestGoexitInCoroReachesRunCaller(t *testing.T) {
	returned, after := false, false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e := NewEngine()
		e.Spawn("exits", func(c *Coro) {
			runtime.Goexit()
		}).Start(0)
		e.Spawn("later", func(c *Coro) {
			c.Sleep(10)
			after = true
		}).Start(0)
		e.Run() //nolint:errcheck // never returns
		returned = true
	}()
	wg.Wait()
	if returned || after {
		t.Fatalf("Run returned=%v, later coro ran=%v; want Goexit to end Run's caller", returned, after)
	}
}
