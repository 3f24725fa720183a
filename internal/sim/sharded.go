package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
)

// Sharded is a conservatively parallel partition of one big simulated
// machine: the node space is split into contiguous shards, each owning
// its processors, its memory modules, a private event queue, and a
// private coroutine set. Shards advance concurrently inside windows
// bounded by the minimum cross-shard communication latency (the
// lookahead), and exchange cross-shard events — posted remote
// references, cross-node wakeups, migrations — at window barriers
// through per-(src,dst) mailboxes.
//
// The legality argument is the spin fast-forward's (DESIGN.md) applied
// one level up. Any physical interaction between nodes on different
// shards takes at least Lookahead of virtual time on the wire, so an
// event fired at t can influence another shard no earlier than
// t+Lookahead. A window [T, T+Lookahead) — T the global minimum pending
// event time — is therefore private to each shard: nothing a peer does
// inside the window can land inside it. Messages buffered during the
// window are merged at the barrier in (when, at, src rank, send order)
// and enter the owner's queue through Engine.scheduleMessage, which
// preserves the sender's schedule instant; the engine's (when, at, seq)
// event order then fires them in exactly the position the serial
// engine's global sequence numbering would have. The one history the
// order cannot reconstruct is a tie in both when and at between events
// born on different shards: the merge breaks it by source rank, where
// the serial engine would have used the senders' global sequence
// numbers. In-tree workloads do produce such ties — the 1024-node
// sharded ring sends two hub PostAdds to shard 0 with equal (when, at)
// at 4 and 8 shards — and their output stays identical only because
// the tied effects commute. deliver counts every source-rank tie-break
// (Stats().CrossSourceTies) so a workload's exposure is measured, not
// assumed; the differential suites assert byte-identical metrics for
// every shard count on everything in-tree.
//
// Determinism does not depend on the worker count: within a window
// shards touch only their own state, and the barrier merge is a fixed
// total order. Sharded runs with any Workers value produce the same
// history, byte for byte.
type Sharded struct {
	cfg       Config
	lookahead Time
	workers   int

	// shards[i] is the machine owning nodes [bounds[i], bounds[i+1]).
	shards []*Machine
	bounds []int
	// owner[n] is the shard rank owning node n.
	owner []int

	// outbox[src][dst] buffers messages sent by shard src to shard dst
	// during the current window. Written only by src's shard while it
	// advances (shard-private), drained only at the barrier.
	outbox [][][]message

	// edges[src][dst] accumulates delivery diagnostics per mailbox edge,
	// written only at the barrier. Deadlock reports use them to show
	// where cross-shard traffic last flowed.
	edges [][]edgeStat

	// stop requests Run return at the next barrier. Atomic because any
	// goroutine may ask while windows are in flight.
	stop atomic.Bool

	ran bool

	// stats counts the coordinator's mechanics, written only by loop
	// and deliver.
	stats ShardStats

	// runnable and end describe the current window: the engines with
	// work before end. loop writes them between windows, while no pool
	// goroutine holds a claim; a pool goroutine reads them only under a
	// claim, so a write never overlaps a read.
	runnable []*Engine
	end      Time

	// The window pool (see runShards). win publishes a window and hands
	// out its shards in one word: the high 32 bits are the window's
	// generation, the low 32 bits the number of runnable shards not yet
	// claimed (quitWindow to stop the pool). pending counts the shards
	// of the published window not yet finished, or at shutdown the pool
	// goroutines not yet gone. coord is the coordinator's wait state and
	// pool the other goroutines'; pool is nil when loop runs every
	// shard itself.
	win     atomic.Uint64
	pending atomic.Int64
	coord   *waiter
	pool    []*waiter
}

// ShardStats counts a sharded run's coordinator mechanics. Every count
// is a function of the workload and the partition alone — identical for
// any Workers value, GOMAXPROCS and host — so benchmarks may gate them
// like simulated metrics.
type ShardStats struct {
	// Windows counts the barrier windows run.
	Windows uint64
	// ShardWindows sums the runnable shards over all windows;
	// ShardWindows/Windows is the parallelism a window offers.
	ShardWindows uint64
	// CrossSourceTies counts the merge's source-rank tie-breaks: adjacent
	// pairs of messages to one destination, from different source
	// shards, with equal (when, at). The serial engine would have ordered
	// each pair by its senders' global sequence numbers instead, so the
	// history is only guaranteed identical when the tied effects commute
	// (see Sharded).
	CrossSourceTies uint64
}

// message is one buffered cross-shard event: fire fn at when on the
// destination shard, ordered as if scheduled at the sender's instant at.
type message struct {
	when Time
	at   Time
	fn   func()
	src  int
}

// edgeStat records per-(src,dst) mailbox traffic.
type edgeStat struct {
	// Delivered counts messages handed to the destination shard.
	Delivered uint64
	// Last is the virtual arrival time of the most recent delivery.
	Last Time
}

// ShardOptions configures a Sharded machine.
type ShardOptions struct {
	// Shards is the number of partitions (default 1). Nodes are split
	// into contiguous blocks: shard i owns [i·N/S, (i+1)·N/S).
	Shards int
	// Workers caps how many shards advance concurrently inside a window
	// (default GOMAXPROCS). Purely a throughput knob: the history is
	// identical for every value.
	Workers int
}

// NewSharded partitions a machine described by cfg into shards. Each
// shard's Machine spans the full node-id space (cells and threads name
// nodes globally) but must only be driven from code running on that
// shard; MachineFor selects the owner for a node. With Shards <= 1 the
// result is a single serial shard and Run degenerates to a plain
// Engine.Run.
func NewSharded(cfg Config, opts ShardOptions) *Sharded {
	cfg = cfg.withDefaults()
	s := opts.Shards
	if s < 1 {
		s = 1
	}
	if s > cfg.Nodes {
		panic(fmt.Sprintf("sim: %d shards over %d nodes (need at least one node per shard)", s, cfg.Nodes))
	}
	w := opts.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	// The safe-window bound is the minimum cross-shard interaction
	// latency, the largest provably safe value. A cross-shard Route with
	// delay below it panics.
	la := min(cfg.RemoteAccess, cfg.Wakeup)
	if la <= 0 {
		panic(fmt.Sprintf("sim: sharded lookahead must be positive, got %v", la))
	}
	sh := &Sharded{
		cfg:       cfg,
		lookahead: la,
		workers:   w,
		shards:    make([]*Machine, s),
		bounds:    make([]int, s+1),
		owner:     make([]int, cfg.Nodes),
		outbox:    make([][][]message, s),
		edges:     make([][]edgeStat, s),
	}
	for i := 0; i < s; i++ {
		m := NewMachine(cfg)
		m.sharded = sh
		m.rank = i
		m.eng.rank = i
		sh.shards[i] = m
		sh.bounds[i] = i * cfg.Nodes / s
		sh.outbox[i] = make([][]message, s)
		sh.edges[i] = make([]edgeStat, s)
	}
	sh.bounds[s] = cfg.Nodes
	for i := 0; i < s; i++ {
		for n := sh.bounds[i]; n < sh.bounds[i+1]; n++ {
			sh.owner[n] = i
		}
	}
	return sh
}

// Shards reports the number of partitions.
func (s *Sharded) Shards() int { return len(s.shards) }

// Lookahead reports the safe-window bound.
func (s *Sharded) Lookahead() Time { return s.lookahead }

// Config returns the (defaulted) machine configuration.
func (s *Sharded) Config() Config { return s.cfg }

// Machine returns shard i's machine.
func (s *Sharded) Machine(i int) *Machine { return s.shards[i] }

// MachineFor returns the machine owning node n. Cells living on n and
// threads executing on n must be created on (and driven from) this
// machine.
func (s *Sharded) MachineFor(n int) *Machine { return s.shards[s.owner[n]] }

// NodeRange reports the contiguous [lo, hi) node block shard i owns.
func (s *Sharded) NodeRange(i int) (lo, hi int) { return s.bounds[i], s.bounds[i+1] }

// RankOf returns the shard rank owning node n.
func (s *Sharded) RankOf(n int) int { return s.owner[n] }

// Stats returns the coordinator counters of the run so far.
func (s *Sharded) Stats() ShardStats { return s.stats }

// EdgeStats returns delivery diagnostics for the (src,dst) mailbox edge.
func (s *Sharded) EdgeStats(src, dst int) (delivered uint64, last Time) {
	st := s.edges[src][dst]
	return st.Delivered, st.Last
}

// Stop makes Run return after the windows in flight complete. Safe from
// any goroutine; simulated code stopping its own shard should call the
// local Engine.Stop, which the coordinator also honours at the barrier.
func (s *Sharded) Stop() {
	s.stop.Store(true)
	if len(s.shards) == 1 {
		s.shards[0].eng.Stop()
	}
}

// send buffers one cross-shard event from src's shard to the shard
// owning node to. Called only via Machine.Route, from code running on
// src's shard — the outbox row is shard-private during a window.
func (s *Sharded) send(src *Machine, to int, delay Time, fn func()) {
	if delay < s.lookahead {
		panic(fmt.Sprintf("sim: cross-shard route %d→%d with delay %v below lookahead %v: no physical interaction is that fast, and the window bound would be violated",
			src.rank, s.owner[to], delay, s.lookahead))
	}
	now := src.eng.Now()
	dst := s.owner[to]
	s.outbox[src.rank][dst] = append(s.outbox[src.rank][dst], message{when: now + delay, at: now, fn: fn, src: src.rank})
}

// Run executes the partitioned simulation to completion: repeatedly
// pick the global minimum pending event time T, advance every shard
// with work before T+Lookahead concurrently, and exchange mailboxes at
// the barrier. It returns the first shard failure (lowest rank wins,
// deterministically), or a deadlock error naming each stalled shard's
// parked coros and the mailbox edges, when every queue drains with
// coros still parked. Like Engine.Run it winds down all remaining coros
// before returning, and may be called once per Sharded.
func (s *Sharded) Run() error {
	if s.ran {
		return fmt.Errorf("sim: Sharded.Run called twice")
	}
	s.ran = true
	if len(s.shards) == 1 {
		// One shard is the serial engine, bit for bit and cycle for
		// cycle: no windows, no barriers, no bounds on inline commits.
		return s.shards[0].eng.Run()
	}
	err := s.loop()
	for _, m := range s.shards {
		m.eng.shutdown()
	}
	if err == nil {
		for _, m := range s.shards {
			if m.eng.failure != nil {
				err = m.eng.failure
				break
			}
		}
	}
	return err
}

// loop is Run's window loop, split out so Run can always wind down.
func (s *Sharded) loop() error {
	for _, m := range s.shards {
		m.eng.stopped = false
	}
	s.startPool()
	defer s.stopPool()
	s.runnable = make([]*Engine, 0, len(s.shards))
	for {
		if s.stop.Load() {
			return nil
		}
		// T = global minimum pending event time.
		var t Time
		any := false
		for _, m := range s.shards {
			if h, ok := m.eng.nextEventTime(); ok && (!any || h < t) {
				t, any = h, true
			}
		}
		if !any {
			live := 0
			for _, m := range s.shards {
				live += len(m.eng.live)
			}
			if live > 0 {
				return s.deadlockError()
			}
			return nil
		}
		s.end = t + s.lookahead

		// Advance every shard with work inside the window. Shards whose
		// next event is at or past end would fire nothing; skipping them
		// is pure throughput, their queues are untouched either way.
		s.runnable = s.runnable[:0]
		for _, m := range s.shards {
			if h, ok := m.eng.nextEventTime(); ok && h < s.end {
				s.runnable = append(s.runnable, m.eng)
			}
		}
		s.stats.Windows++
		s.stats.ShardWindows += uint64(len(s.runnable))
		s.runShards()

		for _, m := range s.shards {
			if m.eng.failure != nil {
				return m.eng.failure
			}
		}
		for _, m := range s.shards {
			if m.eng.stopped {
				return nil
			}
		}
		s.deliver()
	}
}

// Spin-then-park budget of the window barrier (see await). One round is
// spinBatch atomic loads and a runtime.Gosched, about 0.45 µs on a
// 2-vCPU x86 host, so a goroutine spins for about 300 µs before it
// parks. The ring's windows take 100–200 µs of host time and parking
// costs a futex wake-up of tens of µs on each side, so a waiter that
// spins one to two windows long almost never parks while the run is
// busy, and one that keeps waiting longer is idle and better parked.
const (
	spinBatch  = 256
	spinRounds = 640
)

// quitWindow is the claim count runShards never publishes: stopPool
// publishes it to release the pool.
const quitWindow = math.MaxUint32

// waiter is one pool goroutine's wait state (see await).
type waiter struct {
	// spin is false beyond the spinner cap: the goroutine parks at once.
	spin   bool
	parked atomic.Bool
	wake   chan struct{} // capacity 1
}

// startPool starts the goroutines that advance shards beside the
// coordinator, once per Run: min(Workers, shards) goroutines in all,
// counting the coordinator. At most min(Workers, GOMAXPROCS, NumCPU,
// shards) of them spin, the coordinator first; more spinners than
// processors would take the processors from the goroutines with shards
// to run.
func (s *Sharded) startPool() {
	n := min(s.workers, len(s.shards))
	if n <= 1 {
		return
	}
	spinners := min(n, runtime.GOMAXPROCS(0), runtime.NumCPU())
	s.coord = &waiter{spin: true, wake: make(chan struct{}, 1)}
	s.pool = make([]*waiter, n-1)
	for i := range s.pool {
		w := &waiter{spin: i+1 < spinners, wake: make(chan struct{}, 1)}
		s.pool[i] = w
		go s.poolWorker(w)
	}
}

// stopPool releases the pool and returns once every pool goroutine has
// left it.
func (s *Sharded) stopPool() {
	if s.pool == nil {
		return
	}
	s.pending.Store(int64(len(s.pool)))
	s.publish(quitWindow)
	for _, w := range s.pool {
		s.wakeUp(w)
	}
	s.await(s.coord, func() bool { return s.pending.Load() == 0 })
	s.pool = nil
}

// poolWorker is one pool goroutine: wait for the next window, advance
// the shards it claims, repeat until stopPool.
func (s *Sharded) poolWorker(w *waiter) {
	var seen uint64
	for {
		s.await(w, func() bool { return s.win.Load()>>32 != seen })
		c := s.win.Load()
		if uint32(c) == quitWindow {
			if s.pending.Add(-1) == 0 {
				s.wakeUp(s.coord)
			}
			return
		}
		seen = c >> 32
		s.advance(seen)
	}
}

// runShards runs one window on every runnable engine. With a pool, the
// window is published with one atomic store, and the coordinator claims
// and advances shards beside the pool until every shard is claimed,
// then waits for the countdown of unfinished shards to reach zero.
// Shards share no state inside a window, so which goroutine advances
// which shard, and in what order, is irrelevant to the history.
func (s *Sharded) runShards() {
	if s.pool == nil || len(s.runnable) == 1 {
		for _, e := range s.runnable {
			e.runWindow(s.end) //nolint:errcheck // recorded in e.failure, read at the barrier
		}
		return
	}
	s.pending.Store(int64(len(s.runnable)))
	g := s.publish(uint32(len(s.runnable)))
	// One claim is the coordinator's; wake only as many parked
	// goroutines as there are shards left over.
	for _, w := range s.pool[:min(len(s.pool), len(s.runnable)-1)] {
		s.wakeUp(w)
	}
	s.advance(g)
	s.await(s.coord, func() bool { return s.pending.Load() == 0 })
}

// publish starts the next generation with n shards to claim and
// returns the generation. Generations wrap at 32 bits, the width the
// word keeps; waiters compare them only for equality.
func (s *Sharded) publish(n uint32) uint64 {
	g := (s.win.Load()>>32 + 1) & math.MaxUint32
	s.win.Store(g<<32 | uint64(n))
	return g
}

// advance claims and runs window g's shards until none is left. A claim
// succeeds only while the window's shard is unfinished, so the
// coordinator cannot be rewriting runnable and end under it.
func (s *Sharded) advance(g uint64) {
	for {
		c := s.win.Load()
		n := uint32(c)
		if c>>32 != g || n == 0 {
			return
		}
		if !s.win.CompareAndSwap(c, c-1) {
			continue
		}
		s.runnable[n-1].runWindow(s.end) //nolint:errcheck // recorded in e.failure, read at the barrier
		if s.pending.Add(-1) == 0 {
			s.wakeUp(s.coord)
		}
	}
}

// await returns once ready holds, by spin-then-park: up to spinRounds
// rounds of spinBatch checks with a runtime.Gosched between rounds, then
// park on w.wake. Whoever makes ready true calls wakeUp afterwards; the
// parked flag makes exactly one of the two sides clear it, so a park
// never misses its wake-up and every token sent matches one park. A
// wake-up is not tied to the wait it was meant for, though: a waker
// descheduled between making an earlier wait's condition true and
// calling wakeUp can release a later park. So a released waiter checks
// ready again and parks again while it is false.
func (s *Sharded) await(w *waiter, ready func() bool) {
	if w.spin {
		for r := 0; r < spinRounds; r++ {
			for i := 0; i < spinBatch; i++ {
				if ready() {
					return
				}
			}
			runtime.Gosched()
		}
	}
	for {
		w.parked.Store(true)
		if ready() && w.parked.Swap(false) {
			return
		}
		<-w.wake
		if ready() {
			return
		}
	}
}

// wakeUp releases w if it is parked in await.
func (s *Sharded) wakeUp(w *waiter) {
	if w.parked.Swap(false) {
		w.wake <- struct{}{}
	}
}

// deliver drains every mailbox at the window barrier. For each
// destination the inbound messages are merged in (when, at, src rank,
// send order): outboxes are concatenated in src-rank order and stably
// sorted by (when, at), so ties across sources resolve by rank and ties
// within a source keep send order. Engine.scheduleMessage then assigns
// destination sequence numbers in that merged order, completing the
// (when, at, seq) key that slots each message exactly where the serial
// engine would have fired it.
func (s *Sharded) deliver() {
	n := len(s.shards)
	var merged []message
	for dst := 0; dst < n; dst++ {
		merged = merged[:0]
		for src := 0; src < n; src++ {
			box := s.outbox[src][dst]
			if len(box) == 0 {
				continue
			}
			merged = append(merged, box...)
			st := &s.edges[src][dst]
			st.Delivered += uint64(len(box))
			if last := box[len(box)-1].when; last > st.Last {
				st.Last = last
			}
			for i := range box {
				box[i] = message{}
			}
			s.outbox[src][dst] = box[:0]
		}
		if len(merged) == 0 {
			continue
		}
		sort.SliceStable(merged, func(i, j int) bool {
			if merged[i].when != merged[j].when {
				return merged[i].when < merged[j].when
			}
			return merged[i].at < merged[j].at
		})
		e := s.shards[dst].eng
		for i, msg := range merged {
			if i > 0 {
				prev := &merged[i-1]
				if msg.when == prev.when && msg.at == prev.at && msg.src != prev.src {
					s.stats.CrossSourceTies++
				}
			}
			e.scheduleMessage(msg.when, msg.at, msg.fn)
		}
	}
}

// deadlockError reports a global stall: every shard's queue is dry and
// no mailbox holds a message, yet coros remain parked. It names each
// stalled shard's parked coros (Engine.parkedReport) and summarizes the
// mailbox edges so the stalled communication path is visible — the edge
// whose Last time stopped advancing is the one whose producer went
// quiet.
func (s *Sharded) deadlockError() error {
	var parts []string
	for _, m := range s.shards {
		if len(m.eng.live) > 0 {
			parts = append(parts, m.eng.parkedReport())
		}
	}
	var edges []string
	for src := range s.edges {
		for dst, st := range s.edges[src] {
			if st.Delivered > 0 {
				edges = append(edges, fmt.Sprintf("%d→%d ×%d last %v", src, dst, st.Delivered, st.Last))
			}
		}
	}
	const maxEdges = 12
	if len(edges) > maxEdges {
		edges = append(edges[:maxEdges], fmt.Sprintf("… %d more", len(edges)-maxEdges))
	}
	edgeNote := "no cross-shard messages were ever delivered"
	if len(edges) > 0 {
		edgeNote = "mailbox edges: " + strings.Join(edges, ", ")
	}
	return fmt.Errorf("%w (%s; %s)", ErrDeadlock, strings.Join(parts, "; "), edgeNote)
}
