package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/simtest"
)

// shardedTopo abstracts "one big machine" over its two implementations:
// a plain serial Machine, or a Sharded partition of the same Config.
// Workloads built on it never see which one they run on — that is the
// whole claim under test.
type shardedTopo struct {
	sh         *Sharded // nil on the serial engine
	machineFor func(node int) *Machine
	run        func() error
}

// topoFor builds cfg's machine in mode: the serial engine when
// mode.Shards is 0, a Sharded partition otherwise, with mode's fast
// paths set on every engine.
func topoFor(cfg Config, mode simtest.Mode) *shardedTopo {
	tp := &shardedTopo{}
	machines := []*Machine{}
	if mode.Shards == 0 {
		m := NewMachine(cfg)
		tp.machineFor, tp.run, machines = func(int) *Machine { return m }, m.Engine().Run, []*Machine{m}
	} else {
		tp.sh = NewSharded(cfg, ShardOptions{Shards: mode.Shards, Workers: mode.Workers})
		tp.machineFor, tp.run, machines = tp.sh.MachineFor, tp.sh.Run, tp.sh.shards
	}
	for _, m := range machines {
		mode.Set(m.Engine())
	}
	return tp
}

// ringParams shapes one differential ring workload.
type ringParams struct {
	seed   uint64
	nodes  int
	rounds int
	svc    Time // ModuleService
	noise  int  // empty timer events on shard 0 that cut windows short
}

// runShardedRing drives a token ring over posted cells: worker n (one
// per node) spins on its local flag cell for token value r·N+n+1, does
// a random slice of local work, posts the incremented token to the next
// node's flag (a cross-shard message whenever the ring crosses a
// partition boundary), and posts an increment to a shared hub counter
// on node 0. All cross-node traffic is posted — exactly the access
// shape the sharded engine makes legal — so the same code runs
// unchanged on a serial machine and on any partition of it.
//
// Per-worker randomness is seeded from (seed, node) only, never from
// shard layout, and the work draws span milliseconds against sub-µs
// latencies, so distinct workers essentially never tie in (when, at) —
// the one corner the merge order cannot reconstruct (see Sharded).
//
// The fingerprint holds each worker's log, stamped with the worker's own
// clock and ending with its busy time, the final flag and hub values,
// and each module's accesses and queue delay, read from the owner shard.
// The ring always terminates, so a run error fails tb.
func runShardedRing(tb testing.TB, p ringParams, tp *shardedTopo) string {
	tb.Helper()
	n := p.nodes
	logs := make([][]string, n)
	flags := make([]*Cell, n)
	for i := 0; i < n; i++ {
		flags[i] = tp.machineFor(i).NewCell(i, fmt.Sprintf("flag%d", i), 0)
	}
	hub := tp.machineFor(0).NewCell(0, "hub", 0)
	for i := 0; i < p.noise; i++ {
		tp.machineFor(0).Engine().At(Time(i+1)*613*Microsecond, func() {})
	}
	for i := 0; i < n; i++ {
		i := i
		m := tp.machineFor(i)
		r := NewRNG(p.seed*1_000_003 + uint64(i)*7919 + 1)
		a := &spinAccessor{node: i}
		logf := func(c *Coro, format string, args ...any) {
			logs[i] = append(logs[i], fmt.Sprintf("w%d %d ", i, c.Now())+fmt.Sprintf(format, args...))
		}
		c := m.Engine().Spawn(fmt.Sprintf("w%d", i), func(c *Coro) {
			a.c = c
			flag := flags[i]
			next := flags[(i+1)%n]
			for round := 0; round < p.rounds; round++ {
				want := uint64(round*n + i + 1)
				pause := Time(200 + r.Intn(900))
				iters, _ := c.SpinUntil(a, &SpinSpec{
					ProbeCell: flag, ProbeAtomic: i%2 == 0,
					Probe:     func() bool { return flag.Peek() == want },
					PauseCost: func() Time { return pause },
					MaxIters:  SpinUnbounded,
				})
				logf(c, "r%d got token after %d probes", round, iters)
				a.Advance(Time(1+r.Intn(300)) * Microsecond)
				hub.PostAdd(a, 1)
				next.PostStore(a, want+1)
				logf(c, "r%d passed", round)
			}
			logf(c, "done busy=%d", a.busy)
		})
		c.Start(Time(i) * 2 * Millisecond)
	}
	flags[0].Poke(1)
	if err := tp.run(); err != nil {
		tb.Fatalf("ring %+v: %v", p, err)
	}
	var fp strings.Builder
	for _, log := range logs {
		fp.WriteString(strings.Join(log, "\n") + "\n")
	}
	fmt.Fprintf(&fp, "hub %d\n", hub.Peek())
	for i := 0; i < n; i++ {
		m := tp.machineFor(i)
		fmt.Fprintf(&fp, "node %d: flag=%d accesses=%d queue-delay=%d\n", i, flags[i].Peek(), m.ModuleAccesses(i), m.ModuleQueueDelay(i))
	}
	return fp.String()
}

// checkRing runs one ring in every mode of the sharded matrix against
// the serial oracle.
func checkRing(t *testing.T, p ringParams) {
	t.Helper()
	cfg := Config{Nodes: p.nodes, ModuleService: p.svc, Seed: p.seed%97 + 1}
	simtest.Check(t, simtest.Sharded(p.nodes), func(m simtest.Mode) string {
		return runShardedRing(t, p, topoFor(cfg, m))
	})
}

func TestShardedRingDifferential(t *testing.T) {
	for _, svc := range []Time{0, 400 * Nanosecond} {
		t.Run(fmt.Sprintf("svc=%v", svc), func(t *testing.T) {
			checkRing(t, ringParams{seed: 11, nodes: 8, rounds: 3, svc: svc, noise: 2})
		})
	}
}

// FuzzShardedDifferential drives randomized ring topologies through the
// whole sharded matrix, requiring observations identical to the serial
// engine's.
func FuzzShardedDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(5), uint8(2), uint8(3), uint8(1))
	f.Add(uint64(42), uint8(9), uint8(3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, rounds, svcUnits, noise uint8) {
		p := ringParams{
			seed:   seed%1000 + 1,
			nodes:  int(nodes%9) + 1,
			rounds: int(rounds%3) + 1,
			svc:    Time(svcUnits%6) * 200 * Nanosecond,
			noise:  int(noise % 3),
		}
		checkRing(t, p)
	})
}

// TestShardedWindowsEngage proves the partitioned run actually exchanged
// cross-shard messages — the differential suite would pass vacuously if
// everything landed on one shard.
func TestShardedWindowsEngage(t *testing.T) {
	p := ringParams{seed: 5, nodes: 8, rounds: 2}
	tp := topoFor(Config{Nodes: p.nodes, Seed: 1}, simtest.Mode{Shards: 4, Inline: true, Batched: true})
	runShardedRing(t, p, tp)
	sh := tp.sh
	var delivered uint64
	for src := 0; src < sh.Shards(); src++ {
		for dst := 0; dst < sh.Shards(); dst++ {
			n, _ := sh.EdgeStats(src, dst)
			delivered += n
		}
	}
	// The ring alone crosses partitions nodes×rounds times; the hub adds
	// more. Anything near zero means the partition never engaged.
	if delivered < uint64(p.nodes*p.rounds) {
		t.Fatalf("only %d cross-shard messages delivered; the partition never engaged", delivered)
	}
	// Ring hops from the last node of each shard cross to the next shard.
	n, last := sh.EdgeStats(0, 1)
	if n == 0 || last == 0 {
		t.Errorf("edge 0→1 shows no traffic (n=%d last=%v)", n, last)
	}
}

// TestShardedDeadlockReport checks a cross-shard stall names the blocked
// coro's shard and the mailbox edges — the satellite fix for the old
// one-global-heap report.
func TestShardedDeadlockReport(t *testing.T) {
	cfg := Config{Nodes: 4, Seed: 1}
	sh := NewSharded(cfg, ShardOptions{Shards: 2})
	m0, m1 := sh.Machine(0), sh.Machine(1)
	sink := m1.NewCell(2, "sink", 0)
	c0 := m0.Engine().Spawn("producer", func(c *Coro) {
		a := &spinAccessor{c: c, node: 0}
		sink.PostStore(a, 7)
	})
	c0.Start(0)
	c1 := m1.Engine().Spawn("stuck-consumer", func(c *Coro) {
		c.Park() // never unparked: deadlock once the queues drain
	})
	c1.Start(0)
	err := sh.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"shard 1:", "stuck-consumer", "mailbox edges", "0→1 ×1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report %q does not name %q", msg, want)
		}
	}
	if sink.Peek() != 7 {
		t.Errorf("posted store never landed: sink=%d", sink.Peek())
	}
}

// TestSerialDeadlockReportNamesCoros checks the serial half of the same
// satellite: Run's deadlock report names the parked coros.
func TestSerialDeadlockReportNamesCoros(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		c := e.Spawn(fmt.Sprintf("waiter%d", i), func(c *Coro) { c.Park() })
		c.Start(0)
	}
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"10 parked", "waiter0", "waiter7", "… 2 more"} {
		if !strings.Contains(msg, want) {
			t.Errorf("report %q does not contain %q", msg, want)
		}
	}
	if strings.Contains(msg, "shard") {
		t.Errorf("standalone report %q mentions a shard", msg)
	}
}

// TestShardedRouteBelowLookahead pins the window-safety guard: a
// cross-shard route faster than the lookahead is a modelling error and
// must panic rather than silently corrupt the window invariant.
func TestShardedRouteBelowLookahead(t *testing.T) {
	sh := NewSharded(Config{Nodes: 4, Seed: 1}, ShardOptions{Shards: 2})
	m0 := sh.Machine(0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-shard route below lookahead did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "below lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	m0.Route(0, 3, sh.Lookahead()-1, func() {})
}

// TestShardedStop checks both stop paths: a shard's own Engine.Stop ends
// the run at the next barrier, and Sharded.Stop from outside is honoured.
func TestShardedStop(t *testing.T) {
	sh := NewSharded(Config{Nodes: 4, Seed: 1}, ShardOptions{Shards: 2})
	m1 := sh.Machine(1)
	fired := false
	m1.Engine().After(Millisecond, func() { m1.Engine().Stop() })
	m1.Engine().After(Second, func() { fired = true })
	sh.Machine(0).Engine().After(2*Second, func() { fired = true })
	if err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("events after Stop still fired")
	}

	sh2 := NewSharded(Config{Nodes: 4, Seed: 1}, ShardOptions{Shards: 2})
	sh2.Stop()
	ran := false
	sh2.Machine(0).Engine().After(0, func() { ran = true })
	if err := sh2.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("pre-stopped run still fired events")
	}
}

// TestShardedRunTwice pins the single-use contract.
func TestShardedRunTwice(t *testing.T) {
	sh := NewSharded(Config{Nodes: 2, Seed: 1}, ShardOptions{Shards: 2})
	if err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

// TestShardedFailurePropagates checks a coro panic on any shard aborts
// the whole run, lowest rank winning deterministically, and all coros
// are wound down.
func TestShardedFailurePropagates(t *testing.T) {
	sh := NewSharded(Config{Nodes: 4, Seed: 1}, ShardOptions{Shards: 2})
	for i := 0; i < 2; i++ {
		i := i
		m := sh.Machine(i)
		c := m.Engine().Spawn(fmt.Sprintf("bomb%d", i), func(c *Coro) {
			c.Sleep(Millisecond)
			panic(fmt.Sprintf("bomb %d went off", i))
		})
		c.Start(0)
	}
	err := sh.Run()
	if err == nil || !strings.Contains(err.Error(), "bomb") {
		t.Fatalf("want bomb panic, got %v", err)
	}
	for i := 0; i < 2; i++ {
		if n := sh.Machine(i).Engine().Live(); n != 0 {
			t.Errorf("shard %d leaked %d coros", i, n)
		}
	}
}

// TestShardedPartition pins the contiguous node→shard mapping.
func TestShardedPartition(t *testing.T) {
	sh := NewSharded(Config{Nodes: 10, Seed: 1}, ShardOptions{Shards: 4})
	var got []int
	for n := 0; n < 10; n++ {
		got = append(got, sh.RankOf(n))
	}
	want := []int{0, 0, 1, 1, 1, 2, 2, 3, 3, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("owner map %v, want %v", got, want)
	}
	for i := 0; i < 4; i++ {
		lo, hi := sh.NodeRange(i)
		for n := lo; n < hi; n++ {
			if sh.MachineFor(n) != sh.Machine(i) {
				t.Fatalf("MachineFor(%d) is not shard %d", n, i)
			}
		}
	}
}

// shardedSleepers gives every shard of sh a coro that sleeps and routes
// a no-op message to the next shard three times, so windows run on
// several shards at once and the pool, when there is one, engages.
func shardedSleepers(sh *Sharded) {
	for i := 0; i < sh.Shards(); i++ {
		m := sh.Machine(i)
		lo, _ := sh.NodeRange(i)
		to, _ := sh.NodeRange((i + 1) % sh.Shards())
		c := m.Engine().Spawn(fmt.Sprintf("sleeper%d", i), func(c *Coro) {
			for r := 0; r < 3; r++ {
				c.Sleep(Millisecond)
				m.Route(lo, to, sh.Lookahead(), func() {})
			}
		})
		c.Start(0)
	}
}

// TestShardedPoolDoesNotLeakGoroutines ends sharded runs every way a run
// can end, with a pool smaller than the shard count, one as large, and
// one larger than GOMAXPROCS: afterwards the goroutine count is back at
// its level before the runs.
func TestShardedPoolDoesNotLeakGoroutines(t *testing.T) {
	endings := []struct {
		name    string
		build   func(sh *Sharded)
		wantErr func(error) bool
	}{
		{"finish", shardedSleepers, func(err error) bool { return err == nil }},
		{"panic", func(sh *Sharded) {
			shardedSleepers(sh)
			for _, i := range []int{2, 0} {
				i := i
				c := sh.Machine(i).Engine().Spawn(fmt.Sprintf("bomb%d", i), func(c *Coro) {
					c.Sleep(Millisecond)
					panic(fmt.Sprintf("bomb %d went off", i))
				})
				c.Start(0)
			}
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "bomb 0") }},
		{"stop-in-window", func(sh *Sharded) {
			shardedSleepers(sh)
			sh.Machine(1).Engine().After(2*Millisecond, sh.Stop)
		}, func(err error) bool { return err == nil }},
		{"stop-before-run", func(sh *Sharded) {
			shardedSleepers(sh)
			sh.Stop()
		}, func(err error) bool { return err == nil }},
		{"deadlock", func(sh *Sharded) {
			shardedSleepers(sh)
			c := sh.Machine(3).Engine().Spawn("stuck", func(c *Coro) { c.Park() })
			c.Start(0)
		}, func(err error) bool { return errors.Is(err, ErrDeadlock) }},
	}
	base := busyGoroutines(-1)
	for _, workers := range []int{2, 4, 8} {
		for _, end := range endings {
			sh := NewSharded(Config{Nodes: 8, Seed: 1}, ShardOptions{Shards: 4, Workers: workers})
			end.build(sh)
			if err := sh.Run(); !end.wantErr(err) {
				t.Fatalf("workers=%d, %s: unexpected error %v", workers, end.name, err)
			}
			for i := 0; i < sh.Shards(); i++ {
				if n := sh.Machine(i).Engine().Live(); n != 0 {
					t.Errorf("workers=%d, %s: shard %d left %d coros", workers, end.name, i, n)
				}
			}
			if got := busyGoroutines(base); got != base {
				t.Fatalf("workers=%d, %s: %d goroutines besides idle workers after the run, want the baseline %d",
					workers, end.name, got, base)
			}
		}
	}
}

// TestAwaitRechecksAfterWakeUp pins the barrier's answer to a late
// wake-up: a waiter released while its condition is still false parks
// again instead of returning, and returns once a wake-up finds the
// condition true. No step depends on timing: the test waits for the
// waiter to show itself parked, or to return, whichever happens.
func TestAwaitRechecksAfterWakeUp(t *testing.T) {
	var s Sharded
	w := &waiter{wake: make(chan struct{}, 1)}
	var ready atomic.Bool
	done := make(chan struct{})
	go func() {
		s.await(w, ready.Load)
		close(done)
	}()
	awaitParked := func(step string) {
		for !w.parked.Load() {
			select {
			case <-done:
				t.Fatalf("%s: await returned while its condition was false", step)
			default:
				runtime.Gosched()
			}
		}
	}
	awaitParked("first park")
	s.wakeUp(w) // a stale wake-up: the condition is still false
	awaitParked("after a stale wake-up")

	ready.Store(true)
	s.wakeUp(w)
	<-done
	if w.parked.Load() || len(w.wake) != 0 {
		t.Fatalf("await left parked=%v and %d tokens, want false and 0", w.parked.Load(), len(w.wake))
	}
}

// TestPublishWrapsGeneration checks that the window generation wraps at
// the 32 bits the publication word keeps, so advance still matches it.
func TestPublishWrapsGeneration(t *testing.T) {
	var s Sharded
	s.win.Store(uint64(math.MaxUint32) << 32)
	g := s.publish(3)
	if c := s.win.Load(); g != 0 || c>>32 != g || uint32(c) != 3 {
		t.Fatalf("publish after generation 2^32-1 = %d, word %#x; want generation 0 with 3 claims", g, c)
	}
}
