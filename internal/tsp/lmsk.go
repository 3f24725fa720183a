package tsp

// This file implements the LMSK branch-and-bound machinery: search-tree
// nodes holding a lower bound and their reduced cost matrix as row and
// column potentials over the search's one cost matrix, matrix reduction,
// penalty-based branching-edge selection, and node expansion into
// include/exclude children (with subtour elimination) or a completed
// tour.

import (
	"fmt"
	"math"
	"math/bits"
)

// infCell is Inf inside an int32 matrix: a forbidden edge. Every finite
// cost is below it (NewRoot checks), and reduction only lowers finite
// entries, so every finite entry of every node stays below it too.
const infCell = math.MaxInt32

// wide returns a matrix entry as a cost, infCell as Inf.
func wide(v int32) int64 {
	if v == infCell {
		return Inf
	}
	return int64(v)
}

// Node is one subproblem of the search tree: the still-active rows and
// columns of the cost matrix, the reduction potentials and forbidden
// cells that define their reduced matrix, the committed path fragments,
// and the lower bound on any tour below this node.
//
// A node does not keep its reduced matrix. Entry (i, j) is infCell when
// bit i·k+j of the forbidden bitset is set, and otherwise
// base[rows[i]][cols[j]] − u[i] − v[j]: the search's int32 copy of the
// cost matrix minus what reduction took from row i and column j. Expand
// materializes the matrix once (fill), into the search's scratch buffer.
type Node struct {
	// s is the node's one slab, cut by the accessors below:
	//	rows, cols  k entries each: matrix index → city
	//	u, v        k entries each: row and column potentials
	//	nxt, prv    N entries each: successor and predecessor city
	//	            (-1 = none), the committed path fragments
	//	forb        ⌈k²/32⌉ words: the forbidden cells, row-major
	s []int32
	k int
	// Bound is the lower bound of the subproblem.
	Bound int64
	// Seq is an insertion sequence number used to break bound ties
	// deterministically in priority queues.
	Seq uint64
	// pool is the search's shared state, used by every node of the
	// tree; dead marks a node released to its free list.
	pool *nodePool
	dead bool
}

func (n *Node) rows() []int32 { return n.s[:n.k] }
func (n *Node) cols() []int32 { return n.s[n.k : 2*n.k] }
func (n *Node) u() []int32    { return n.s[2*n.k : 3*n.k] }
func (n *Node) v() []int32    { return n.s[3*n.k : 4*n.k] }
func (n *Node) nxt() []int32  { return n.s[4*n.k : 4*n.k+n.pool.inst.N] }
func (n *Node) prv() []int32  { return n.s[4*n.k+n.pool.inst.N : 4*n.k+2*n.pool.inst.N] }
func (n *Node) forb() []int32 { return n.s[4*n.k+2*n.pool.inst.N:] }

// forbid sets bit i of a forbidden-cell bitset.
func forbid(forb []int32, i int) { forb[i>>5] |= 1 << (i & 31) }

// nodePool is one search's shared state: the int32 cost matrix every
// node's entries derive from, the scratch buffers of the expansion in
// progress, and the free list of released nodes, bucketed by size k.
// Every size-k node has the same slab, so a recycled node is refilled in
// place without allocating. Each search owns its pool, used by one host
// thread at a time: a simulated solve's searchers take turns on one
// engine, and concurrent searches (TSPComparison's three solves) share
// none. That is what lets an expansion keep its matrix and tallies here.
type nodePool struct {
	inst *Instance
	base []int32 // Instance.Cost as int32, N×N row-major, infCell on the diagonal
	free [][]*Node
	mat  []int32 // the reduced matrix of the node being expanded
	// tally holds pivot's per-line zero counts and nonzero minima, which
	// include then reads.
	tally  []int32
	rowMin []int32 // reduce's row minima
	zeros  []int32 // pivot's zero offsets
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
	return &Node{s: make([]int32, 4*k+2*p.inst.N+(k*k+31)/32), k: k, pool: p}
}

// Release returns a node that its search will never touch again to the
// search's free list, where a later expansion may reuse its memory.
// Calling it is optional — a search that never releases behaves exactly
// as one that does, only allocating more — but a released node is dead:
// expanding it, queueing it, or releasing it again panics.
func (n *Node) Release() {
	n.mustBeLive("Release")
	n.dead = true
	n.pool.free[n.k] = append(n.pool.free[n.k], n)
}

// mustBeLive panics when op is applied to a released node.
func (n *Node) mustBeLive(op string) {
	if n.dead {
		panic("tsp: " + op + " of a released node")
	}
}

// NewRoot builds the root subproblem: the full cost matrix, reduced. It
// also starts the search's pool, which every descendant shares. An
// off-diagonal cost outside [0, math.MaxInt32) panics; ParseTSPLIB
// rejects such input with an error.
func NewRoot(in *Instance) *Node {
	N := in.N
	pool := &nodePool{
		inst:   in,
		base:   make([]int32, N*N),
		free:   make([][]*Node, N+1),
		mat:    make([]int32, N*N),
		tally:  make([]int32, 4*N),
		rowMin: make([]int32, N),
	}
	for i, row := range in.Cost {
		for j, v := range row {
			switch {
			case i == j:
				pool.base[i*N+j] = infCell
			case v < 0 || v >= infCell:
				panic(fmt.Sprintf("tsp: %s: cost %d at (%d,%d) is outside [0, %d)", in, v, i, j, infCell))
			default:
				pool.base[i*N+j] = int32(v)
			}
		}
	}
	n := pool.get(N)
	rows, cols, nxt, prv := n.rows(), n.cols(), n.nxt(), n.prv()
	for i := range N {
		rows[i], cols[i], nxt[i], prv[i] = int32(i), int32(i), -1, -1
		forbid(n.forb(), i*N+i)
	}
	n.reduce(pool.base, N, N, N, nil, nil)
	return n
}

// fill writes n's reduced matrix into m, k×k row-major.
func (n *Node) fill(m []int32) {
	k, N, base := n.k, n.pool.inst.N, n.pool.base
	u, v, cols := n.u(), n.v()[:k], n.cols()[:k]
	for i, r := range n.rows() {
		from := base[int(r)*N:][:N]
		row, ui := m[i*k:][:k], u[i]
		for j, c := range cols {
			// A forbidden cell's difference may be anything, even
			// wrapped; the bitset pass below overwrites it.
			row[j] = from[c] - ui - v[j]
		}
	}
	for w, word := range n.forb() {
		for b := uint32(word); b != 0; b &= b - 1 {
			m[w<<5+bits.TrailingZeros32(b)] = infCell
		}
	}
}

// reduce reduces n, whose matrix before reduction is m, a stride-wide
// square matrix, without its row dr and column dc (dr = dc = stride for
// none), with infCell at n's forbidden cells. It adds each row's and then
// each column's minimum to the line's potential and to the bound. A line
// with no finite entry makes the subproblem infeasible (Bound = Inf),
// leaving the lines before it reduced, as a line-by-line reduction would.
//
// rowZeros and colZeros, when not nil, count the zeros of m's lines. m is
// nonnegative, so a line with a zero has minimum 0 and is not scanned.
// Reducing a row creates zeros and removes none, so a column's count
// still witnesses a zero after the rows are reduced.
func (n *Node) reduce(m []int32, stride, dr, dc int, rowZeros, colZeros []int32) {
	k, u, v := n.k, n.u(), n.v()
	rowMin := n.pool.rowMin[:k]
	bound := n.Bound
	for r := range rowMin {
		mr := r
		if r >= dr {
			mr++
		}
		lo := int32(0)
		if rowZeros == nil || rowZeros[mr] == 0 {
			lo = infCell
			for c, x := range m[mr*stride:][:stride] {
				if c != dc {
					lo = min(lo, x)
				}
			}
			if lo == infCell {
				n.Bound = Inf
				return
			}
		}
		rowMin[r] = lo
		u[r] += lo
		bound += int64(lo)
	}
	for c := range k {
		mc := c
		if c >= dc {
			mc++
		}
		lo := int32(0)
		if colZeros == nil || colZeros[mc] == 0 {
			lo = infCell
			for r, rm := range rowMin {
				mr := r
				if r >= dr {
					mr++
				}
				if x := m[mr*stride+mc]; x != infCell {
					lo = min(lo, x-rm)
				}
			}
			if lo == infCell {
				n.Bound = Inf
				return
			}
		}
		v[c] += lo
		bound += int64(lo)
	}
	n.Bound = bound
}

// pivot selects the branching zero cell of n's reduced matrix m: the
// zero whose exclusion would raise the bound the most (maximum penalty =
// row second-minimum + column second-minimum), the first in row-major
// order on ties. Returns matrix indices; ok=false if the matrix has no
// zero (infeasible).
//
// The matrix is reduced and its entries are nonnegative, so a line's
// minimum without one of its zeros is 0 when the line holds another zero
// and its smallest nonzero entry otherwise. One pass that tallies each
// line's zeros and nonzero minimum therefore prices every zero.
func (n *Node) pivot(m []int32) (pr, pc int, ok bool) {
	k := n.k
	s := n.pool.tally
	rowZeros, rowMin, colZeros, colMin := s[:k], s[k:2*k], s[2*k:3*k], s[3*k:4*k]
	for c := 0; c < k; c++ {
		colZeros[c], colMin[c] = 0, infCell
	}
	zeros := n.pool.zeros[:0] // matrix offsets of the zeros, row-major
	for r := 0; r < k; r++ {
		zs, lo := int32(0), int32(infCell)
		for c, v := range m[r*k : (r+1)*k] {
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

// exclude builds the child with edge (rows[pr] → cols[pc]) forbidden,
// from n's reduced matrix m. n is reduced, so only row pr and then
// column pc can lose their zero, and each drops by its minimum without
// cell (pr, pc): pivot's two penalty terms. The child is n with one more
// forbidden bit and those two potentials raised, and its bound is n's
// plus the penalty.
func (n *Node) exclude(m []int32, pr, pc int) *Node {
	k := n.k
	rowPen, colPen := int32(infCell), int32(infCell)
	for c, x := range m[pr*k : pr*k+k] {
		if c != pc {
			rowPen = min(rowPen, x)
		}
	}
	for r := range k {
		if r != pr {
			colPen = min(colPen, m[r*k+pc])
		}
	}
	c := n.pool.get(k)
	copy(c.s, n.s)
	forbid(c.forb(), pr*k+pc)
	c.Bound = Inf
	if rowPen == infCell {
		return c
	}
	c.u()[pr] += rowPen
	if colPen == infCell {
		return c
	}
	c.v()[pc] += colPen
	c.Bound = n.Bound + int64(rowPen) + int64(colPen)
	return c
}

// include builds the child that commits edge (rows[pr] → cols[pc]) from
// n's reduced matrix m and pivot's tallies of it: the row and column are
// deleted, the path fragments are merged, the edge that would close a
// premature subtour is forbidden, and the lines left without a zero are
// reduced. It consumes m and the tallies.
func (n *Node) include(m []int32, pr, pc int) *Node {
	from, to := n.rows()[pr], n.cols()[pc]
	k := n.k

	c := n.pool.get(k - 1)
	c.Bound = n.Bound
	copy(c.nxt(), n.nxt())
	copy(c.prv(), n.prv())
	dropAt(c.rows(), c.u(), n.rows(), n.u(), pr)
	dropAt(c.cols(), c.v(), n.cols(), n.v(), pc)

	// The child's zero counts, by the parent's line: pivot's, less the
	// zeros of row pr and column pc.
	rowZeros, colZeros := n.pool.tally[:k], n.pool.tally[2*k:3*k]
	for i := range k {
		if m[i*k+pc] == 0 {
			rowZeros[i]--
		}
		if m[pr*k+i] == 0 {
			colZeros[i]--
		}
	}

	forb := c.forb()
	clear(forb)
	row, first := 0, 0 // the parent row of bit i, and the row's first bit
	for w, word := range n.forb() {
		for b := uint32(word); b != 0; b &= b - 1 {
			i := w<<5 + bits.TrailingZeros32(b)
			for i >= first+k {
				row, first = row+1, first+k
			}
			r, col := row, i-first
			if r == pr || col == pc {
				continue
			}
			if r > pr {
				r--
			}
			if col > pc {
				col--
			}
			forbid(forb, r*(k-1)+col)
		}
	}

	// Merge fragments and forbid the closing edge end→start while the
	// tour is incomplete.
	nxt, prv := c.nxt(), c.prv()
	nxt[from] = to
	prv[to] = from
	start := from
	for prv[start] != -1 {
		start = prv[start]
	}
	end := to
	for nxt[end] != -1 {
		end = nxt[end]
	}
	if c.k > 1 {
		if er, ok := c.rowIndex(end); ok {
			if sc, ok2 := c.colIndex(start); ok2 {
				forbid(forb, er*c.k+sc)
				// The same cell in the parent's indices.
				if er >= pr {
					er++
				}
				if sc >= pc {
					sc++
				}
				if m[er*k+sc] == 0 {
					rowZeros[er]--
					colZeros[sc]--
				}
				m[er*k+sc] = infCell
			}
		}
	}
	c.reduce(m, k, pr, pc, rowZeros, colZeros)
	return c
}

// dropAt copies a line's city map and potentials without their entry i
// into the child's: a few entries, so a loop beats four copy calls.
func dropAt(dstCity, dstPot, city, pot []int32, i int) {
	dstPot = dstPot[:len(dstCity)]
	for j := range dstCity {
		from := j
		if j >= i {
			from++
		}
		dstCity[j], dstPot[j] = city[from], pot[from]
	}
}

// rowIndex finds the matrix row of a city.
func (n *Node) rowIndex(city int32) (int, bool) {
	for i, r := range n.rows() {
		if r == city {
			return i, true
		}
	}
	return 0, false
}

// colIndex finds the matrix column of a city.
func (n *Node) colIndex(city int32) (int, bool) {
	for i, c := range n.cols() {
		if c == city {
			return i, true
		}
	}
	return 0, false
}

// complete finishes a size-2 node from its reduced matrix m: the two
// remaining edges are forced. Returns nil if neither assignment is
// feasible.
func (n *Node) complete(m []int32) *Tour {
	if n.k != 2 {
		panic("tsp: complete on node of wrong size")
	}
	// Two possible assignments, rows[r] → cols[r^swap]; pick the
	// feasible (cheaper) one, the first on a tie.
	a := wide(m[0]) + wide(m[3])
	b := wide(m[1]) + wide(m[2])
	if min(a, b) >= Inf {
		return nil
	}
	swap := 0
	if b < a {
		swap = 1
	}
	in := n.pool.inst
	nxt := make([]int, in.N)
	for i, v := range n.nxt() {
		nxt[i] = int(v)
	}
	rows, cols := n.rows(), n.cols()
	for r := 0; r < 2; r++ {
		nxt[rows[r]] = int(cols[r^swap])
	}
	order := make([]int, 0, in.N)
	city := 0
	for i := 0; i < in.N; i++ {
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
		cost += in.Cost[c][order[(i+1)%in.N]]
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
	k := n.k
	res := ExpandResult{Work: 3 * k * k}
	if n.Bound >= Inf {
		return res
	}
	m := n.pool.mat[:k*k]
	n.fill(m)
	if k == 2 {
		res.Tour = n.complete(m)
		return res
	}
	pr, pc, ok := n.pivot(m)
	if !ok {
		return res
	}
	// exclude reads m before include compacts it.
	exc := n.exclude(m, pr, pc)
	inc := n.include(m, pr, pc)
	res.Children = make([]*Node, 0, 2)
	for _, c := range [2]*Node{inc, exc} {
		if c.Bound < Inf {
			res.Children = append(res.Children, c)
		} else {
			c.Release()
		}
	}
	return res
}
