package sim

import "fmt"

// Config describes the simulated machine: its size and the latency
// parameters that drive every cost in the simulation.
//
// The defaults approximate a BBN Butterfly GP1000: each node pairs a
// processor with a memory module; a reference to the local module is fast
// while a reference through the switch to a remote module costs roughly
// four times as much; an atomic read-modify-write ("atomior" on the
// Butterfly) costs one extra module access; and thread-package operations
// (context switch, blocked-thread wakeup) cost tens of microseconds, as
// they did for Cthreads on the 68020-based nodes.
type Config struct {
	// Nodes is the number of processor/memory nodes (default 32).
	Nodes int
	// LocalAccess is the cost of one reference to the local memory module
	// (default 600ns).
	LocalAccess Time
	// RemoteAccess is the cost of one reference through the switch to a
	// remote module (default 4 × LocalAccess).
	RemoteAccess Time
	// AtomicExtra is the additional cost of a read-modify-write over a
	// plain reference (default one local access).
	AtomicExtra Time
	// Instr is the cost of one abstract instruction step of computation;
	// code charges k×Instr for k steps of private work (default 250ns).
	Instr Time
	// ContextSwitch is the thread-package cost of switching the processor
	// to another thread (default 35µs).
	ContextSwitch Time
	// Wakeup is the cost, charged to the waker, of moving a blocked thread
	// back to its processor's ready queue (default 45µs).
	Wakeup Time
	// Quantum enables preemptive round-robin timeslicing of threads on a
	// processor: a thread that has computed for a full quantum is moved to
	// the back of the ready queue if another thread is runnable. 0 (the
	// default) disables preemption — pure coroutine scheduling. The
	// multiprogrammed spin-vs-block experiments need preemption, as the
	// paper's Mach-based Butterfly did: a descheduled lock holder is what
	// makes spinning catastrophic when threads outnumber processors.
	Quantum Time
	// ModuleService enables memory-module contention (Butterfly switch
	// hot spots): each module serializes its accesses at one per
	// ModuleService, so concurrent references to the same module queue
	// behind each other on top of the base latency. 0 (the default)
	// disables queuing — modules have infinite bandwidth. Used by the
	// local-spin (MCS-style) lock-retargeting ablation: spinning remotely
	// on one word floods that word's module.
	ModuleService Time
	// Seed initializes the machine's deterministic random stream.
	Seed uint64
}

// DefaultConfig returns the GP1000-flavoured default parameters.
func DefaultConfig() Config {
	return Config{
		Nodes:         32,
		LocalAccess:   600 * Nanosecond,
		RemoteAccess:  2400 * Nanosecond,
		AtomicExtra:   600 * Nanosecond,
		Instr:         250 * Nanosecond,
		ContextSwitch: 35 * Microsecond,
		Wakeup:        45 * Microsecond,
		Seed:          1,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.LocalAccess == 0 {
		c.LocalAccess = d.LocalAccess
	}
	if c.RemoteAccess == 0 {
		c.RemoteAccess = 4 * c.LocalAccess
	}
	if c.AtomicExtra == 0 {
		c.AtomicExtra = c.LocalAccess
	}
	if c.Instr == 0 {
		c.Instr = d.Instr
	}
	if c.ContextSwitch == 0 {
		c.ContextSwitch = d.ContextSwitch
	}
	if c.Wakeup == 0 {
		c.Wakeup = d.Wakeup
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Machine is a simulated NUMA multiprocessor: an engine, a set of
// processor/memory nodes, and the latency model.
type Machine struct {
	eng *Engine
	cfg Config
	rng *RNG

	// sharded/rank link the machine to a Sharded coordinator when it is
	// one shard of a partitioned big machine: rank is the shard index,
	// and sharded routes cross-shard events. Both stay zero/nil on a
	// standalone machine. Set only by NewSharded.
	sharded *Sharded
	rank    int

	// moduleFree is, per node, when that memory module finishes its
	// currently queued accesses (only used when ModuleService > 0).
	moduleFree []Time
	// queueDelay accumulates total module-contention delay per node.
	queueDelay []Time
	// accesses counts memory references per node (contention diagnostics).
	accesses []uint64
	// spinner is, per node, the spin-lane member probing that node's
	// module, nil when none; allocated only when ModuleService > 0,
	// where a reservation by anyone else harms the member.
	spinner []*Coro
}

// NewMachine builds a machine on a fresh engine. Zero Config fields take
// their defaults.
func NewMachine(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		panic(fmt.Sprintf("sim: machine needs at least one node, got %d", cfg.Nodes))
	}
	m := &Machine{
		eng:        NewEngine(),
		cfg:        cfg,
		rng:        NewRNG(cfg.Seed),
		moduleFree: make([]Time, cfg.Nodes),
		queueDelay: make([]Time, cfg.Nodes),
		accesses:   make([]uint64, cfg.Nodes),
	}
	if cfg.ModuleService > 0 {
		m.spinner = make([]*Coro, cfg.Nodes)
	}
	return m
}

// chargeAccess advances a by the cost of one reference to memory node to,
// plus atomicExtra for read-modify-writes, plus any module queuing delay
// when contention modelling is enabled.
//
// The module-reservation bookkeeping reads Now() before the Advance, so it
// depends on the engine clock being exact at every instant — which the
// inline self-wakeup fast path preserves: an in-place accrual moves now to
// precisely the time the slow path's dispatch would have.
func (m *Machine) chargeAccess(a Accessor, to int, atomicExtra Time) {
	cost, _ := m.reserveAccess(a.Node(), to, atomicExtra)
	a.Advance(cost)
}

// reserveAccess books one reference from node from to memory node to at
// the current instant — access count, and module-queue reservation when
// contention modelling is on — and returns the reference's total latency
// along with its queueing component. The caller must then advance the
// accessor by cost; chargeAccess does both, the spin emulator advances
// through its own boundary-aware accrual instead.
func (m *Machine) reserveAccess(from, to int, atomicExtra Time) (cost, delay Time) {
	cost = m.AccessCost(from, to) + atomicExtra
	m.accesses[to]++
	if svc := m.cfg.ModuleService; svc > 0 {
		if c := m.spinner[to]; c != nil {
			m.eng.moduleHarm(c)
		}
		now := m.eng.Now()
		start := m.moduleFree[to]
		if start < now {
			start = now
		}
		m.moduleFree[to] = start + svc
		delay = start - now
		m.queueDelay[to] += delay
		cost += delay
	}
	return cost, delay
}

// ModuleQueueDelay reports the accumulated contention delay at a node's
// memory module.
func (m *Machine) ModuleQueueDelay(node int) Time {
	m.eng.SyncSpins()
	return m.queueDelay[node]
}

// ModuleAccesses reports how many references a node's module served.
func (m *Machine) ModuleAccesses(node int) uint64 {
	m.eng.SyncSpins()
	return m.accesses[node]
}

// Engine returns the machine's event engine.
func (m *Machine) Engine() *Engine { return m.eng }

// Config returns the (defaulted) machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// RNG returns the machine's deterministic random stream.
func (m *Machine) RNG() *RNG { return m.rng }

// Nodes reports the number of processor/memory nodes.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// AccessCost returns the latency of one memory reference from the given
// processor node to the given memory node.
func (m *Machine) AccessCost(from, to int) Time {
	if from == to {
		return m.cfg.LocalAccess
	}
	return m.cfg.RemoteAccess
}

// Accessor is anything that can be charged virtual time from a home node:
// in practice a cthreads.Thread, but tests use lighter implementations.
type Accessor interface {
	// Node is the memory node the accessor executes on.
	Node() int
	// Advance consumes d of virtual time on the accessor's processor.
	Advance(d Time)
}

// InstrCost returns the cost of n abstract instruction steps.
func (m *Machine) InstrCost(n int) Time {
	return Time(n) * m.cfg.Instr
}

// Sharded returns the coordinator this machine is one shard of, or nil
// on a standalone machine.
func (m *Machine) Sharded() *Sharded { return m.sharded }

// ShardRank returns the machine's shard index under a Sharded
// coordinator, 0 on a standalone machine.
func (m *Machine) ShardRank() int { return m.rank }

// Route schedules fn to run after delay in the context that owns memory
// node to, as seen from node from. On a standalone machine (and for a
// destination inside the caller's own shard) this is exactly
// Engine.After. When from and to live on different shards of a Sharded
// machine, the call becomes a cross-shard message: it is buffered in the
// source shard's outbox and delivered to the owner's event queue at the
// next window barrier, carrying the send instant so it fires in exactly
// the (when, at, seq) position the serial engine would have used. The
// delay of a cross-shard route must be at least Sharded.Lookahead — the
// window bound derived from the latency table — or Route panics; every
// physical cross-node interaction (remote reference, wakeup) satisfies
// this by construction.
//
// Route must be called from the machine that from executes on (the
// caller's own shard): the buffered outbox is shard-private state.
func (m *Machine) Route(from, to int, delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	sh := m.sharded
	if sh == nil || sh.RankOf(to) == m.rank {
		m.eng.After(delay, fn)
		return
	}
	sh.send(m, to, delay, fn)
}
