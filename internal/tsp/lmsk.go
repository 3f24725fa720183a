package tsp

// This file implements the LMSK branch-and-bound machinery: search-tree
// nodes carrying a reduced cost matrix and a lower bound, matrix
// reduction, penalty-based branching-edge selection, and node expansion
// into include/exclude children (with subtour elimination) or a completed
// tour.

// Edge is a directed edge of the (symmetric, but LMSK-treated-as-directed)
// tour under construction.
type Edge struct {
	From, To int
}

// Node is one subproblem of the search tree: the set of still-active rows
// and columns of the reduced cost matrix, the edges already committed, and
// the lower bound on any tour below this node.
type Node struct {
	inst *Instance
	// rows and cols map matrix indices to city numbers.
	rows, cols []int
	// m is the reduced cost matrix, len(rows)×len(cols), row-major.
	m []int64
	// Bound is the lower bound of the subproblem.
	Bound int64
	// Edges are the committed (included) edges.
	Edges []Edge
	// nxt and prv are successor/predecessor city arrays (-1 = none),
	// tracking committed path fragments for subtour elimination.
	nxt, prv []int
	// Seq is an insertion sequence number used to break bound ties
	// deterministically in priority queues.
	Seq uint64
	// pool is the search's free list, shared by every node of the tree;
	// dead marks a node released to it.
	pool *nodePool
	dead bool
}

// nodePool is one search's free list of released nodes, bucketed by size
// k. Within a search every size-k node has slices of the same lengths —
// k rows and columns, a k×k matrix, N−k committed edges, N-city fragment
// arrays — so a recycled node is refilled in place without allocating.
// Each search owns its pool, used by one host thread at a time: a
// simulated solve's searchers take turns on one engine, and concurrent
// searches (TSPComparison's three solves) share none.
type nodePool struct {
	inst *Instance
	free [][]*Node
}

// get returns a live size-k node whose contents the caller overwrites,
// recycled when the bucket has one.
func (p *nodePool) get(k int) *Node {
	if b := p.free[k]; len(b) > 0 {
		n := b[len(b)-1]
		b[len(b)-1] = nil
		p.free[k] = b[:len(b)-1]
		n.Seq = 0
		n.dead = false
		return n
	}
	n := p.inst.N
	return &Node{
		inst:  p.inst,
		rows:  make([]int, k),
		cols:  make([]int, k),
		m:     make([]int64, k*k),
		Edges: make([]Edge, n-k),
		nxt:   make([]int, n),
		prv:   make([]int, n),
		pool:  p,
	}
}

// Release returns a node that its search will never touch again to the
// search's free list, where a later expansion may reuse its memory.
// Calling it is optional — a search that never releases behaves exactly
// as one that does, only allocating more — but a released node is dead:
// expanding it, queueing it, or releasing it again panics.
func (n *Node) Release() {
	n.mustBeLive("Release")
	n.dead = true
	k := len(n.rows)
	n.pool.free[k] = append(n.pool.free[k], n)
}

// mustBeLive panics when op is applied to a released node.
func (n *Node) mustBeLive(op string) {
	if n.dead {
		panic("tsp: " + op + " of a released node")
	}
}

// at returns m[r][c] by matrix index.
func (n *Node) at(r, c int) int64 { return n.m[r*len(n.cols)+c] }

// set writes m[r][c].
func (n *Node) set(r, c int, v int64) { n.m[r*len(n.cols)+c] = v }

// NewRoot builds the root subproblem: the full cost matrix, reduced. It
// also starts the search's node free list, which every descendant shares.
func NewRoot(in *Instance) *Node {
	pool := &nodePool{inst: in, free: make([][]*Node, in.N+1)}
	n := pool.get(in.N)
	for i := 0; i < in.N; i++ {
		n.rows[i] = i
		n.cols[i] = i
		n.nxt[i] = -1
		n.prv[i] = -1
		copy(n.m[i*in.N:(i+1)*in.N], in.Cost[i])
	}
	n.reduce()
	return n
}

// clone deep-copies the node.
func (n *Node) clone() *Node {
	c := n.pool.get(len(n.rows))
	copy(c.rows, n.rows)
	copy(c.cols, n.cols)
	copy(c.m, n.m)
	c.Bound = n.Bound
	copy(c.Edges, n.Edges)
	copy(c.nxt, n.nxt)
	copy(c.prv, n.prv)
	return c
}

// reduce subtracts each row's and then each column's minimum, adding the
// total reduction to the bound. A row or column with no finite entry makes
// the subproblem infeasible (Bound ≥ Inf).
func (n *Node) reduce() {
	nr, nc := len(n.rows), len(n.cols)
	for r := 0; r < nr; r++ {
		min := Inf
		for c := 0; c < nc; c++ {
			if v := n.at(r, c); v < min {
				min = v
			}
		}
		if min >= Inf {
			n.Bound = Inf
			return
		}
		if min > 0 {
			for c := 0; c < nc; c++ {
				if v := n.at(r, c); v < Inf {
					n.set(r, c, v-min)
				}
			}
			n.Bound += min
		}
	}
	for c := 0; c < nc; c++ {
		min := Inf
		for r := 0; r < nr; r++ {
			if v := n.at(r, c); v < min {
				min = v
			}
		}
		if min >= Inf {
			n.Bound = Inf
			return
		}
		if min > 0 {
			for r := 0; r < nr; r++ {
				if v := n.at(r, c); v < Inf {
					n.set(r, c, v-min)
				}
			}
			n.Bound += min
		}
	}
}

// pivot selects the branching zero cell: the zero whose exclusion would
// raise the bound the most (maximum penalty = row second-minimum + column
// second-minimum). Returns matrix indices; ok=false if the matrix has no
// zero (infeasible).
func (n *Node) pivot() (pr, pc int, ok bool) {
	nr, nc := len(n.rows), len(n.cols)
	best := int64(-1)
	for r := 0; r < nr; r++ {
		for c := 0; c < nc; c++ {
			if n.at(r, c) != 0 {
				continue
			}
			rowMin := Inf
			for c2 := 0; c2 < nc; c2++ {
				if c2 != c && n.at(r, c2) < rowMin {
					rowMin = n.at(r, c2)
				}
			}
			colMin := Inf
			for r2 := 0; r2 < nr; r2++ {
				if r2 != r && n.at(r2, c) < colMin {
					colMin = n.at(r2, c)
				}
			}
			p := rowMin + colMin
			if p > Inf {
				p = Inf
			}
			if p > best {
				best, pr, pc = p, r, c
			}
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return pr, pc, true
}

// exclude builds the child with edge (rows[pr] → cols[pc]) forbidden.
func (n *Node) exclude(pr, pc int) *Node {
	c := n.clone()
	c.set(pr, pc, Inf)
	c.reduce()
	return c
}

// include builds the child that commits edge (rows[pr] → cols[pc]): the
// row and column are deleted, the path fragments are merged, and the edge
// that would close a premature subtour is forbidden.
func (n *Node) include(pr, pc int) *Node {
	from, to := n.rows[pr], n.cols[pc]
	nr, nc := len(n.rows), len(n.cols)

	c := n.pool.get(nr - 1)
	c.Bound = n.Bound
	copy(c.Edges, n.Edges)
	c.Edges[len(n.Edges)] = Edge{From: from, To: to}
	copy(c.nxt, n.nxt)
	copy(c.prv, n.prv)
	c.rows = append(append(c.rows[:0], n.rows[:pr]...), n.rows[pr+1:]...)
	c.cols = append(append(c.cols[:0], n.cols[:pc]...), n.cols[pc+1:]...)
	m := c.m[:0]
	for r := 0; r < nr; r++ {
		if r == pr {
			continue
		}
		row := n.m[r*nc : (r+1)*nc]
		m = append(append(m, row[:pc]...), row[pc+1:]...)
	}
	c.m = m

	// Merge fragments and forbid the closing edge end→start while the
	// tour is incomplete.
	c.nxt[from] = to
	c.prv[to] = from
	start := from
	for c.prv[start] != -1 {
		start = c.prv[start]
	}
	end := to
	for c.nxt[end] != -1 {
		end = c.nxt[end]
	}
	if len(c.Edges) < n.inst.N-1 {
		if er, ok := c.rowIndex(end); ok {
			if sc, ok2 := c.colIndex(start); ok2 {
				c.set(er, sc, Inf)
			}
		}
	}
	c.reduce()
	return c
}

// rowIndex finds the matrix row of a city.
func (n *Node) rowIndex(city int) (int, bool) {
	for i, r := range n.rows {
		if r == city {
			return i, true
		}
	}
	return 0, false
}

// colIndex finds the matrix column of a city.
func (n *Node) colIndex(city int) (int, bool) {
	for i, c := range n.cols {
		if c == city {
			return i, true
		}
	}
	return 0, false
}

// complete finishes a size-2 node: the two remaining edges are forced.
// Returns nil if neither assignment is feasible.
func (n *Node) complete() *Tour {
	if len(n.rows) != 2 || len(n.cols) != 2 {
		panic("tsp: complete on node of wrong size")
	}
	// Two possible assignments; pick the feasible (cheaper) one.
	a := n.at(0, 0) + n.at(1, 1)
	b := n.at(0, 1) + n.at(1, 0)
	var pairs [2]Edge
	switch {
	case a < Inf && (b >= Inf || a <= b):
		pairs = [2]Edge{{n.rows[0], n.cols[0]}, {n.rows[1], n.cols[1]}}
	case b < Inf:
		pairs = [2]Edge{{n.rows[0], n.cols[1]}, {n.rows[1], n.cols[0]}}
	default:
		return nil
	}
	nxt := append([]int(nil), n.nxt...)
	for _, e := range pairs {
		nxt[e.From] = e.To
	}
	order := make([]int, 0, n.inst.N)
	city := 0
	for i := 0; i < n.inst.N; i++ {
		order = append(order, city)
		city = nxt[city]
		if city == -1 {
			return nil // broken chain: infeasible assignment
		}
	}
	if city != 0 {
		return nil // did not close the cycle
	}
	var cost int64
	for i, c := range order {
		cost += n.inst.Cost[c][order[(i+1)%n.inst.N]]
	}
	return &Tour{Order: order, Cost: cost}
}

// ExpandResult is the outcome of expanding one node.
type ExpandResult struct {
	// Children are the feasible subproblems (bound < Inf), best first.
	Children []*Node
	// Tour is non-nil when the node completed a tour.
	Tour *Tour
	// Work approximates the cells touched, for simulation time charging.
	Work int
}

// Expand performs one LMSK branching step. It leaves n intact; infeasible
// children are released on the spot, the feasible ones belong to the
// caller.
func (n *Node) Expand() ExpandResult {
	n.mustBeLive("Expand")
	k := len(n.rows)
	res := ExpandResult{Work: 3 * k * k}
	if n.Bound >= Inf {
		return res
	}
	if k == 2 {
		res.Tour = n.complete()
		return res
	}
	pr, pc, ok := n.pivot()
	if !ok {
		return res
	}
	inc := n.include(pr, pc)
	if inc.Bound < Inf {
		res.Children = append(res.Children, inc)
	} else {
		inc.Release()
	}
	exc := n.exclude(pr, pc)
	if exc.Bound < Inf {
		res.Children = append(res.Children, exc)
	} else {
		exc.Release()
	}
	return res
}
