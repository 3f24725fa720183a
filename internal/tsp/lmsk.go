package tsp

// This file implements the LMSK branch-and-bound machinery: search-tree
// nodes carrying a reduced cost matrix and a lower bound, matrix
// reduction, penalty-based branching-edge selection, and node expansion
// into include/exclude children (with subtour elimination) or a completed
// tour.

import (
	"fmt"
	"math"
)

// infCell is Inf inside a node's int32 matrix: a forbidden edge. Every
// finite cost is below it (NewRoot checks), and reduction only lowers
// finite entries, so every finite entry of every node stays below it too.
const infCell = math.MaxInt32

// wide returns a matrix entry as a cost, infCell as Inf.
func wide(v int32) int64 {
	if v == infCell {
		return Inf
	}
	return int64(v)
}

// Node is one subproblem of the search tree: the set of still-active rows
// and columns of the reduced cost matrix, the committed path fragments,
// and the lower bound on any tour below this node.
type Node struct {
	inst *Instance
	// rows and cols map matrix indices to city numbers.
	rows, cols []int32
	// m is the reduced cost matrix, len(rows)×len(cols), row-major.
	m []int32
	// nxt and prv are successor/predecessor city arrays (-1 = none),
	// tracking committed path fragments for subtour elimination.
	nxt, prv []int32
	// Bound is the lower bound of the subproblem.
	Bound int64
	// Seq is an insertion sequence number used to break bound ties
	// deterministically in priority queues.
	Seq uint64
	// pool is the search's free list, shared by every node of the tree;
	// dead marks a node released to it.
	pool *nodePool
	dead bool
}

// nodePool is one search's free list of released nodes, bucketed by size
// k. Every size-k node has the same slab — k rows and columns, a k×k
// matrix and N-city fragment arrays, one []int32 — so a recycled node is
// refilled in place without allocating. Each search owns its pool, used by
// one host thread at a time: a simulated solve's searchers take turns on
// one engine, and concurrent searches (TSPComparison's three solves) share
// none. That also lets pivot keep its tallies on the pool.
type nodePool struct {
	inst    *Instance
	free    [][]*Node
	scratch []int32 // pivot's per-line zero counts and nonzero minima
	zeros   []int32 // pivot's zero offsets
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
	s := make([]int32, 2*k+k*k+2*n)
	cut := func(l int) []int32 {
		part := s[:l:l]
		s = s[l:]
		return part
	}
	return &Node{
		inst: p.inst,
		rows: cut(k),
		cols: cut(k),
		m:    cut(k * k),
		nxt:  cut(n),
		prv:  cut(n),
		pool: p,
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
func (n *Node) at(r, c int) int32 { return n.m[r*len(n.cols)+c] }

// set writes m[r][c].
func (n *Node) set(r, c int, v int32) { n.m[r*len(n.cols)+c] = v }

// NewRoot builds the root subproblem: the full cost matrix, reduced. It
// also starts the search's node free list, which every descendant shares.
// An off-diagonal cost outside [0, math.MaxInt32) panics; ParseTSPLIB
// rejects such input with an error.
func NewRoot(in *Instance) *Node {
	pool := &nodePool{inst: in, free: make([][]*Node, in.N+1), scratch: make([]int32, 4*in.N)}
	n := pool.get(in.N)
	for i := 0; i < in.N; i++ {
		n.rows[i] = int32(i)
		n.cols[i] = int32(i)
		n.nxt[i] = -1
		n.prv[i] = -1
		for j, v := range in.Cost[i] {
			switch {
			case i == j:
				n.set(i, j, infCell)
			case v < 0 || v >= infCell:
				panic(fmt.Sprintf("tsp: %s: cost %d at (%d,%d) is outside [0, %d)", in, v, i, j, infCell))
			default:
				n.set(i, j, int32(v))
			}
		}
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
	copy(c.nxt, n.nxt)
	copy(c.prv, n.prv)
	c.Bound = n.Bound
	return c
}

// reduce subtracts each row's and then each column's minimum, adding the
// total reduction to the bound. A row or column with no finite entry makes
// the subproblem infeasible (Bound ≥ Inf).
func (n *Node) reduce() {
	k := len(n.rows)
	for r := 0; r < k; r++ {
		if !n.reduceLine(r*k, 1) {
			return
		}
	}
	for c := 0; c < k; c++ {
		if !n.reduceLine(c, k) {
			return
		}
	}
}

// reduceLine reduces one line, row or column: it subtracts the minimum of
// the k entries m[first], m[first+stride], … from each finite one and
// adds it to the bound. It reports false, with Bound set to Inf, when the
// line has no finite entry.
func (n *Node) reduceLine(first, stride int) bool {
	end := first + len(n.rows)*stride
	lo := int32(infCell)
	for i := first; i < end; i += stride {
		lo = min(lo, n.m[i])
	}
	if lo == infCell {
		n.Bound = Inf
		return false
	}
	if lo > 0 {
		for i := first; i < end; i += stride {
			if v := n.m[i]; v != infCell {
				n.m[i] = v - lo
			}
		}
		n.Bound += int64(lo)
	}
	return true
}

// pivot selects the branching zero cell: the zero whose exclusion would
// raise the bound the most (maximum penalty = row second-minimum + column
// second-minimum), the first in row-major order on ties. Returns matrix
// indices; ok=false if the matrix has no zero (infeasible).
//
// The node is reduced and its entries are nonnegative, so a line's
// minimum without one of its zeros is 0 when the line holds another zero
// and its smallest nonzero entry otherwise. One pass that tallies each
// line's zeros and nonzero minimum therefore prices every zero.
func (n *Node) pivot() (pr, pc int, ok bool) {
	k := len(n.rows)
	s := n.pool.scratch
	rowZeros, rowMin, colZeros, colMin := s[:k], s[k:2*k], s[2*k:3*k], s[3*k:4*k]
	for c := 0; c < k; c++ {
		colZeros[c], colMin[c] = 0, infCell
	}
	zeros := n.pool.zeros[:0] // matrix offsets of the zeros, row-major
	for r := 0; r < k; r++ {
		zs, lo := int32(0), int32(infCell)
		for c, v := range n.m[r*k : (r+1)*k] {
			if v == 0 {
				zs++
				colZeros[c]++
				zeros = append(zeros, int32(r*k+c))
			} else {
				lo = min(lo, v)
				colMin[c] = min(colMin[c], v)
			}
		}
		rowZeros[r], rowMin[r] = zs, lo
	}
	n.pool.zeros = zeros
	best := int64(-1)
	for _, z := range zeros {
		r, c := int(z)/k, int(z)%k
		p := penalty(rowZeros[r], rowMin[r]) + penalty(colZeros[c], colMin[c])
		if p > Inf {
			p = Inf
		}
		if p > best {
			best, pr, pc = p, r, c
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return pr, pc, true
}

// penalty is a line's minimum without one of its zeros, from the line's
// zero count and smallest nonzero entry.
func penalty(zeros, nonzeroMin int32) int64 {
	if zeros > 1 {
		return 0
	}
	return wide(nonzeroMin)
}

// exclude builds the child with edge (rows[pr] → cols[pc]) forbidden. The
// parent is reduced, so only row pr and then column pc can lose their
// zero: reducing those two lines, in reduce's order, reduces the child.
func (n *Node) exclude(pr, pc int) *Node {
	c := n.clone()
	c.set(pr, pc, infCell)
	k := len(c.rows)
	if c.reduceLine(pr*k, 1) {
		c.reduceLine(pc, k)
	}
	return c
}

// include builds the child that commits edge (rows[pr] → cols[pc]): the
// row and column are deleted, the path fragments are merged, and the edge
// that would close a premature subtour is forbidden.
func (n *Node) include(pr, pc int) *Node {
	from, to := n.rows[pr], n.cols[pc]
	k := len(n.rows)

	c := n.pool.get(k - 1)
	c.Bound = n.Bound
	copy(c.nxt, n.nxt)
	copy(c.prv, n.prv)
	copy(c.rows, n.rows[:pr])
	copy(c.rows[pr:], n.rows[pr+1:])
	copy(c.cols, n.cols[:pc])
	copy(c.cols[pc:], n.cols[pc+1:])
	dst := c.m
	for r := 0; r < k; r++ {
		if r == pr {
			continue
		}
		row := n.m[r*k : (r+1)*k]
		dst = dst[copy(dst, row[:pc]):]
		dst = dst[copy(dst, row[pc+1:]):]
	}

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
	if len(c.rows) > 1 {
		if er, ok := c.rowIndex(end); ok {
			if sc, ok2 := c.colIndex(start); ok2 {
				c.set(er, sc, infCell)
			}
		}
	}
	c.reduce()
	return c
}

// rowIndex finds the matrix row of a city.
func (n *Node) rowIndex(city int32) (int, bool) {
	for i, r := range n.rows {
		if r == city {
			return i, true
		}
	}
	return 0, false
}

// colIndex finds the matrix column of a city.
func (n *Node) colIndex(city int32) (int, bool) {
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
	// Two possible assignments, rows[r] → cols[r^swap]; pick the
	// feasible (cheaper) one, the first on a tie.
	a := wide(n.at(0, 0)) + wide(n.at(1, 1))
	b := wide(n.at(0, 1)) + wide(n.at(1, 0))
	if min(a, b) >= Inf {
		return nil
	}
	swap := 0
	if b < a {
		swap = 1
	}
	nxt := make([]int, n.inst.N)
	for i, v := range n.nxt {
		nxt[i] = int(v)
	}
	for r := 0; r < 2; r++ {
		nxt[n.rows[r]] = int(n.cols[r^swap])
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
	res.Children = make([]*Node, 0, 2)
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
