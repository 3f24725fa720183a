package tsp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Organization selects the parallel structure of the solver (§4).
type Organization string

// The paper's three parallel implementations.
const (
	// OrgCentralized: one global work queue and one global best-tour value
	// on node 0. Optimal pruning, maximal lock contention.
	OrgCentralized Organization = "centralized"
	// OrgDistributed: a work queue and a best-tour copy per processor,
	// queues connected in a ring for work stealing. Lower contention, but
	// stale bounds cause useless node expansions.
	OrgDistributed Organization = "distributed"
	// OrgDistributedLB: distributed plus the paper's load-balancing rule —
	// each work request first moves one subproblem from the next
	// processor's queue into the local queue, then takes the local best.
	OrgDistributedLB Organization = "distributed-lb"
)

// Lock names used by every implementation (§4).
const (
	LockQueue  = "qlock"
	LockActive = "glob-act-lock"
	LockLowest = "glob-low-lock"
	LockGlobal = "globlock"
)

// The cost of one queue push/pop. queueOpSteps is its instruction
// charge, the same in the parallel and the sequential solver;
// queueOpAccesses is its memory references, charged at the queue's home
// node distance (the parallel solver's queues only).
const (
	queueOpSteps    = 20
	queueOpAccesses = 3
)

// pollInterval is the idle searcher's re-check period.
const pollInterval = 50 * sim.Microsecond

// Config parameterizes a parallel solve.
type Config struct {
	Instance  *Instance
	Searchers int
	Org       Organization
	LockKind  locks.Kind

	// Machine configures the simulated multiprocessor; zero fields take
	// sim defaults, and Nodes is raised to Searchers if smaller.
	Machine sim.Config

	// StepsPerWorkUnit charges expansion work (default 1 step per touched
	// matrix cell as estimated by Node.Expand).
	StepsPerWorkUnit int
	// RecordPatterns enables waiting-thread series per lock (Figures 4–9).
	RecordPatterns bool
	// Tracer, when non-nil, records the solve's thread, lock, and
	// adaptation events in virtual time.
	Tracer *trace.Tracer
	// Profiler, when non-nil, charges every tick of the solve's virtual
	// time to (thread, lock, state) attribution keys.
	Profiler *profile.Profiler
	// Ledger, when non-nil, records the adaptive locks' reconfiguration
	// decisions with their sensor inputs.
	Ledger *core.Ledger
}

// Result is the outcome of a parallel (or simulated-sequential) solve.
type Result struct {
	Tour       Tour
	Elapsed    sim.Time
	Expansions int
	// Useless counts expansions of subproblems whose bound was not below
	// the best tour known anywhere at that moment — work a perfectly
	// consistent bound would have pruned (the distributed implementations'
	// price for local best-tour copies).
	Useless   int
	LockStats map[string]locks.Stats
	// Patterns holds one waiting-thread series per lock name when
	// Config.RecordPatterns is set; distributed per-node qlocks are
	// aggregated under "qlock".
	Patterns map[string]*metrics.Series
	// FinalSpin maps each adaptive lock to its final spin-time attribute
	// (diagnostics for the adaptation narrative).
	FinalSpin map[string]int64
	// Sched reports thread-package counters.
	Sched cthreads.Stats
}

// withDefaults validates and fills the configuration.
func (c Config) withDefaults() (Config, error) {
	if c.Instance == nil {
		return c, fmt.Errorf("tsp: Config.Instance is required")
	}
	if c.Searchers < 1 {
		c.Searchers = 10
	}
	if c.Org == "" {
		c.Org = OrgCentralized
	}
	if c.LockKind == "" {
		c.LockKind = locks.KindBlocking
	}
	if c.Machine.Nodes < c.Searchers {
		c.Machine.Nodes = c.Searchers
	}
	if c.StepsPerWorkUnit < 1 {
		c.StepsPerWorkUnit = 1
	}
	switch c.Org {
	case OrgCentralized, OrgDistributed, OrgDistributedLB:
	default:
		return c, fmt.Errorf("tsp: unknown organization %q", c.Org)
	}
	return c, nil
}

// solver is the shared state of one parallel run.
type solver struct {
	cfg  Config
	sys  *cthreads.System
	dist bool // distributed queues and best copies

	queues []*nodeHeap
	qlocks []locks.Lock
	qNodes []int // home node of each queue

	bestCells []*sim.Cell // per-node best-cost copy (len 1 when centralized)
	bestTour  *Tour       // protected by glob-low-lock
	lowLock   locks.Lock

	activeCell *sim.Cell
	actLock    locks.Lock

	doneCell *sim.Cell
	globLock locks.Lock

	// trueBest mirrors the best tour cost known anywhere, for useless-work
	// accounting only (not visible to simulated code).
	trueBest   int64
	expansions int
	useless    int

	patterns map[string]*metrics.Series
}

// Solve runs the configured parallel TSP implementation to completion and
// returns the optimal tour with run measurements. The solve is exact: all
// three organizations return the same optimal cost, differing only in how
// much time and wasted work they spend.
func Solve(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	s := &solver{
		cfg:      cfg,
		sys:      cthreads.New(cfg.Machine),
		dist:     cfg.Org != OrgCentralized,
		trueBest: Inf,
	}
	s.sys.SetTracer(cfg.Tracer)
	s.sys.SetProfiler(cfg.Profiler)
	s.sys.SetLedger(cfg.Ledger)
	s.build()

	// The root problem is enqueued before the searchers start (the main
	// program does this before forking, §4).
	s.queues[0].push(NewRoot(cfg.Instance))

	for i := 0; i < cfg.Searchers; i++ {
		i := i
		s.sys.Fork(i, fmt.Sprintf("searcher%d", i), func(t *cthreads.Thread) {
			s.search(t, i)
		})
	}
	if err := s.sys.Run(); err != nil {
		return Result{}, err
	}
	return s.result()
}

// build allocates queues, locks, shared cells, and pattern observers.
func (s *solver) build() {
	cfg := s.cfg
	mkLock := func(name string, node int) locks.Lock {
		l := locks.MustNew(s.sys, cfg.LockKind, node, name)
		if cfg.RecordPatterns {
			s.observe(l, name)
		}
		return l
	}

	nq := 1
	if s.dist {
		nq = cfg.Searchers
	}
	s.queues = make([]*nodeHeap, nq)
	s.qlocks = make([]locks.Lock, nq)
	s.qNodes = make([]int, nq)
	for i := 0; i < nq; i++ {
		s.queues[i] = &nodeHeap{}
		node := 0
		if s.dist {
			node = i
		}
		s.qNodes[i] = node
		name := LockQueue
		if s.dist {
			name = fmt.Sprintf("%s#%d", LockQueue, i)
		}
		s.qlocks[i] = mkLock(name, node)
	}

	nb := 1
	if s.dist {
		nb = cfg.Searchers
	}
	s.bestCells = make([]*sim.Cell, nb)
	for i := 0; i < nb; i++ {
		node := 0
		if s.dist {
			node = i
		}
		s.bestCells[i] = s.sys.Machine().NewCell(node, fmt.Sprintf("best#%d", i), uint64(Inf))
	}

	s.lowLock = mkLock(LockLowest, 0)
	s.actLock = mkLock(LockActive, 0)
	s.globLock = mkLock(LockGlobal, 0)
	s.activeCell = s.sys.Machine().NewCell(0, "active", uint64(cfg.Searchers))
	s.doneCell = s.sys.Machine().NewCell(0, "done", 0)
}

// observe attaches a waiting-thread series to a lock; per-node qlock
// series share one aggregated series keyed by the base name.
func (s *solver) observe(l locks.Lock, name string) {
	if s.patterns == nil {
		s.patterns = make(map[string]*metrics.Series)
	}
	base, _, _ := strings.Cut(name, "#")
	series, ok := s.patterns[base]
	if !ok {
		series = metrics.NewSeries(base)
		s.patterns[base] = series
	}
	type observable interface{ SetObserver(locks.Observer) }
	if o, ok := l.(observable); ok {
		o.SetObserver(func(now sim.Time, waiting int) {
			series.Add(now, int64(waiting))
		})
	}
}

// chargeQueueOp charges one queue operation against the queue's home node.
func (s *solver) chargeQueueOp(t *cthreads.Thread, q int) {
	t.Compute(queueOpSteps)
	t.Advance(queueOpAccesses * s.sys.Machine().AccessCost(t.Node(), s.qNodes[q]))
}

// bestFor returns the best-cost cell a searcher on processor me consults.
func (s *solver) bestFor(me int) *sim.Cell {
	if s.dist {
		return s.bestCells[me]
	}
	return s.bestCells[0]
}

// getWork implements each organization's work-acquisition protocol.
// Returns nil when no work was found anywhere this attempt.
func (s *solver) getWork(t *cthreads.Thread, me int) *Node {
	switch s.cfg.Org {
	case OrgCentralized:
		s.qlocks[0].Lock(t)
		s.chargeQueueOp(t, 0)
		n := s.queues[0].pop()
		s.qlocks[0].Unlock(t)
		return n

	case OrgDistributed:
		// Local queue first, then walk the ring to the next non-empty one.
		// Each queue is best-first locally, but with no global ordering
		// across queues a searcher may expand a locally-best node that is
		// globally poor — the partial ordering the load-balancing variant
		// repairs by continually mixing neighbouring queues.
		for k := 0; k < s.cfg.Searchers; k++ {
			q := (me + k) % s.cfg.Searchers
			s.qlocks[q].Lock(t)
			s.chargeQueueOp(t, q)
			n := s.queues[q].pop()
			s.qlocks[q].Unlock(t)
			if n != nil {
				return n
			}
		}
		return nil

	default: // OrgDistributedLB
		// Load balancing: move one subproblem from the next processor's
		// queue into the local queue, then take the local best.
		next := (me + 1) % s.cfg.Searchers
		s.qlocks[next].Lock(t)
		s.chargeQueueOp(t, next)
		stolen := s.queues[next].pop()
		s.qlocks[next].Unlock(t)
		s.qlocks[me].Lock(t)
		if stolen != nil {
			s.chargeQueueOp(t, me)
			s.queues[me].push(stolen)
		}
		s.chargeQueueOp(t, me)
		n := s.queues[me].pop() // best-first: the improved global ordering
		s.qlocks[me].Unlock(t)
		if n != nil {
			return n
		}
		// Fall back to a ring walk so work cannot strand.
		for k := 2; k < s.cfg.Searchers; k++ {
			q := (me + k) % s.cfg.Searchers
			s.qlocks[q].Lock(t)
			s.chargeQueueOp(t, q)
			n := s.queues[q].pop()
			s.qlocks[q].Unlock(t)
			if n != nil {
				return n
			}
		}
		return nil
	}
}

// putWork enqueues a child subproblem (always on the local queue for the
// distributed organizations, the global queue otherwise).
func (s *solver) putWork(t *cthreads.Thread, me int, n *Node) {
	q := 0
	if s.dist {
		q = me
	}
	s.qlocks[q].Lock(t)
	s.chargeQueueOp(t, q)
	s.queues[q].push(n)
	s.qlocks[q].Unlock(t)
}

// anyWork reports whether any queue is non-empty, charging one probe per
// inspected queue head.
func (s *solver) anyWork(t *cthreads.Thread) bool {
	for q := range s.queues {
		t.Advance(s.sys.Machine().AccessCost(t.Node(), s.qNodes[q]))
		if len(s.queues[q].ns) > 0 {
			return true
		}
	}
	return false
}

// updateBest publishes an improved tour.
func (s *solver) updateBest(t *cthreads.Thread, me int, tour *Tour) {
	s.lowLock.Lock(t)
	cur := int64(s.bestCells[0].Load(t))
	if tour.Cost < cur {
		if s.dist {
			// Propagate the new bound to every processor's local copy.
			for _, cell := range s.bestCells {
				cell.Store(t, uint64(tour.Cost))
			}
		} else {
			s.bestCells[0].Store(t, uint64(tour.Cost))
		}
		// The tour structure itself is multi-word; keep it consistent
		// under the multi-purpose global lock (§4: globlock keeps the
		// global data structure consistent).
		s.globLock.Lock(t)
		t.Compute(3 * len(tour.Order))
		cp := *tour
		s.bestTour = &cp
		s.globLock.Unlock(t)
	}
	s.lowLock.Unlock(t)
	if tour.Cost < s.trueBest {
		s.trueBest = tour.Cost
	}
}

// search is one searcher thread's body.
func (s *solver) search(t *cthreads.Thread, me int) {
	cfg := s.cfg
	//simlint:allow rawspin -- worker main loop, not a spin: Compute here charges node-expansion work, and blocking happens in getWork/idle
	for {
		n := s.getWork(t, me)
		if n == nil {
			if s.idle(t) {
				return
			}
			continue
		}

		// Prune against the (possibly stale, if distributed) local bound.
		bound := int64(s.bestFor(me).Load(t))
		if n.Bound >= bound {
			n.Release()
			t.Compute(4)
			continue
		}

		if n.Bound >= s.trueBest {
			s.useless++ // a consistent bound would have pruned this
		}
		s.expansions++
		inc, exc, tour, work := n.expand()
		n.Release()
		t.Compute(work * cfg.StepsPerWorkUnit)

		if tour != nil {
			local := int64(s.bestFor(me).Load(t))
			if tour.Cost < local {
				s.updateBest(t, me, tour)
			}
		}
		for _, c := range [2]*Node{inc, exc} {
			if c == nil {
				continue
			}
			if c.Bound < int64(s.bestFor(me).Load(t)) {
				s.putWork(t, me, c)
			} else {
				c.Release()
			}
		}
	}
}

// idle runs the termination protocol after a failed work hunt. It returns
// true when the computation is finished (the searcher should exit) and
// false when new work appeared (the searcher re-activated).
func (s *solver) idle(t *cthreads.Thread) bool {
	s.actLock.Lock(t)
	v := s.activeCell.Load(t)
	s.activeCell.Store(t, v-1)
	s.actLock.Unlock(t)

	//simlint:allow rawspin -- termination protocol polls several cells and re-acquires locks inside the probe; a SpinSpec conversion would reorder charges and drift deterministic metrics
	for {
		if s.doneCell.Load(t) == 1 {
			return true
		}
		if s.anyWork(t) {
			s.actLock.Lock(t)
			v := s.activeCell.Load(t)
			s.activeCell.Store(t, v+1)
			s.actLock.Unlock(t)
			return false
		}
		tourFound := int64(s.bestCells[0].Load(t)) < Inf
		if s.activeCell.Load(t) == 0 && tourFound {
			s.globLock.Lock(t)
			s.doneCell.Store(t, 1)
			s.globLock.Unlock(t)
			return true
		}
		t.Advance(pollInterval)
	}
}

// result assembles the Result after the simulation completes.
func (s *solver) result() (Result, error) {
	if s.bestTour == nil {
		return Result{}, fmt.Errorf("tsp: %s run found no tour", s.cfg.Org)
	}
	if err := s.bestTour.Valid(s.cfg.Instance); err != nil {
		return Result{}, fmt.Errorf("tsp: %s produced invalid tour: %w", s.cfg.Org, err)
	}
	res := Result{
		Tour:       *s.bestTour,
		Elapsed:    s.sys.Now(),
		Expansions: s.expansions,
		Useless:    s.useless,
		LockStats:  make(map[string]locks.Stats),
		Patterns:   s.patterns,
		FinalSpin:  make(map[string]int64),
		Sched:      s.sys.Stats(),
	}
	all := append(append([]locks.Lock(nil), s.qlocks...), s.lowLock, s.actLock, s.globLock)
	for _, l := range all {
		base, _, _ := strings.Cut(l.Name(), "#")
		st := l.Stats()
		agg := res.LockStats[base]
		agg.Acquisitions += st.Acquisitions
		agg.Contended += st.Contended
		agg.Blocks += st.Blocks
		agg.SpinIters += st.SpinIters
		agg.TotalWait += st.TotalWait
		if st.MaxWaiting > agg.MaxWaiting {
			agg.MaxWaiting = st.MaxWaiting
		}
		res.LockStats[base] = agg
		if al, ok := l.(*locks.AdaptiveLock); ok {
			res.FinalSpin[l.Name()] = al.Object().Attrs.MustGet(locks.AttrSpinTime)
		}
	}
	return res, nil
}

// SolveSequentialSim runs the sequential LMSK program on one simulated
// processor, charging the same expansion and queue costs but using no
// locks — the paper's sequential baseline of Table 1.
func SolveSequentialSim(in *Instance, machine sim.Config, stepsPerWorkUnit int) (Result, error) {
	if machine.Nodes < 1 {
		machine.Nodes = 1
	}
	if stepsPerWorkUnit < 1 {
		stepsPerWorkUnit = 1
	}
	sys := cthreads.New(machine)
	var res SerialResult
	var ok bool
	sys.Fork(0, "sequential", func(t *cthreads.Thread) {
		res, ok = bestFirst(in, stepsPerWorkUnit, t.Compute)
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	if !ok {
		return Result{}, fmt.Errorf("tsp: sequential run found no tour")
	}
	return Result{Tour: res.Tour, Elapsed: sys.Now(), Expansions: res.Expansions, Sched: sys.Stats()}, nil
}
