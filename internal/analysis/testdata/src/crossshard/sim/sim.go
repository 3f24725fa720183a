// Package sim is a crossshard fixture with stand-in Sharded, Machine,
// and Engine types carrying the shard-owned field names.
package sim

import "sync/atomic"

type Time int64

type message struct {
	when, at Time
	fn       func()
}

type edgeStat struct {
	Delivered uint64
	Last      Time
}

type Engine struct {
	rank int
}

type Machine struct {
	sharded *Sharded
	rank    int
	eng     *Engine
}

type Sharded struct {
	shards    []*Machine
	bounds    []int
	owner     []int
	outbox    [][][]message
	edges     [][]edgeStat
	lookahead Time
	workers   int
	ran       bool

	stats    stats
	runnable []*Engine
	end      Time
	win      atomic.Uint64
	pending  atomic.Int64
	coord    *waiter
	pool     []*waiter
}

type stats struct{ Windows uint64 }

type waiter struct{ spin bool }

// NewSharded is on the allowlist: partition construction writes freely.
func NewSharded(ms []*Machine) *Sharded {
	sh := &Sharded{}
	sh.shards = ms
	sh.bounds = make([]int, len(ms)+1)
	sh.owner = make([]int, 8)
	for i, m := range ms {
		m.sharded = sh
		m.rank = i
		m.eng.rank = i
	}
	return sh
}

// send is on the allowlist: the shard-local outbox append.
func (s *Sharded) send(src, dst int, m message) {
	s.outbox[src][dst] = append(s.outbox[src][dst], m)
}

// deliver is on the allowlist: the window-barrier mailbox merge.
func (s *Sharded) deliver() {
	for src := range s.outbox {
		for dst := range s.outbox[src] {
			st := &s.edges[src][dst]
			st.Delivered++
			s.outbox[src][dst] = s.outbox[src][dst][:0]
		}
	}
}

// The window pool's fields have owners of their own: only they write.
func (s *Sharded) loop() {
	s.stats.Windows++
	s.runnable = s.runnable[:0]
	s.end = 1
	s.runShards()
}

func (s *Sharded) runShards() {
	s.pending.Store(int64(len(s.runnable)))
	s.advance(s.publish(uint64(len(s.runnable))))
}

func (s *Sharded) publish(n uint64) uint64 {
	g := s.win.Load()>>32 + 1
	s.win.Store(g<<32 | n)
	return g
}

func (s *Sharded) advance(g uint64) {
	if c := s.win.Load(); c>>32 == g && s.win.CompareAndSwap(c, c-1) {
		s.pending.Add(-1)
	}
}

func (s *Sharded) startPool() {
	s.coord = &waiter{spin: true}
	s.pool = []*waiter{{}}
}

// A shared-allowlist function is no owner of the pool's fields.
func (s *Sharded) Run() {
	s.ran = true
	s.stats = stats{}        // want `write to Sharded.stats outside the shard coordinator allowlist \(Run is not one of loop/deliver\)`
	s.win.Store(0)           // want `write to Sharded.win outside the shard coordinator allowlist \(Run is not one of publish/advance\)`
	s.pool = nil             // want `write to Sharded.pool outside the shard coordinator allowlist`
	_ = s.pending.Load() > 0 // reads are legal
}

// A stray write from a pool goroutine's helper, past the owners.
func (s *Sharded) strayPoolWrites() {
	s.pending.Add(-1)          // want `write to Sharded.pending outside the shard coordinator allowlist \(strayPoolWrites is not one of runShards/stopPool/advance/poolWorker\)`
	s.win.CompareAndSwap(1, 0) // want `write to Sharded.win outside the shard coordinator allowlist`
	s.runnable[0] = nil        // want `write to Sharded.runnable outside the shard coordinator allowlist`
	s.end++                    // want `write to Sharded.end outside the shard coordinator allowlist`
	s.coord = nil              // want `write to Sharded.coord outside the shard coordinator allowlist`
	s.stats.Windows = 0        // want `write to Sharded.stats outside the shard coordinator allowlist`
}

func hackMailbox(s *Sharded, m message) {
	s.outbox[0][1] = append(s.outbox[0][1], m) // want `write to Sharded.outbox outside the shard coordinator allowlist`
	s.edges[0][1].Delivered++                  // want `write to Sharded.edges outside the shard coordinator allowlist`
}

func hackPartition(s *Sharded) {
	s.owner[3] = 0  // want `write to Sharded.owner outside the shard coordinator allowlist`
	s.bounds[1] = 2 // want `write to Sharded.bounds outside the shard coordinator allowlist`
	s.ran = false   // want `write to Sharded.ran outside the shard coordinator allowlist`
}

func hackLinks(m *Machine, e *Engine) {
	m.sharded = nil // want `write to Machine.sharded outside the shard coordinator allowlist`
	m.rank = 2      // want `write to Machine.rank outside the shard coordinator allowlist`
	e.rank = 0      // want `write to Engine.rank outside the shard coordinator allowlist`
}

func escape(s *Sharded) *edgeStat {
	return &s.edges[0][0] // want `Sharded.edges \(address taken\)`
}

// reads are always legal.
func read(s *Sharded) int { return s.owner[0] }

func allowed(s *Sharded) {
	//simlint:allow crossshard -- fixture: a justified suppression is honored
	s.ran = false
}
