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

// Node is one subproblem of the search tree: the reduction potentials and
// forbidden cells that define its reduced matrix, the committed path
// fragments, and the lower bound on any tour below this node.
//
// A node does not keep its reduced matrix, nor anything its successor
// array determines. Its matrix rows are the cities with no successor and
// its columns the cities that no city precedes, each in ascending order:
// the root has every city, and an include child drops one of each. Expand
// derives these line maps and the predecessor array once (derive), into
// the search's scratch. Entry (i, j) is infCell when bit i·k+j of the
// forbidden bitset is set, and otherwise base[rows[i]][cols[j]] − u[i] −
// v[j]: the search's int32 copy of the cost matrix minus what reduction
// took from row i and column j. Expand materializes the matrix once
// (fill), into the search's scratch buffer.
type Node struct {
	// s is the node's one slab, cut by the accessors below:
	//	u, v  k entries each: row and column potentials
	//	nxt   N entries: successor city (-1 = none), the committed
	//	      path fragments
	//	forb  ⌈k²/32⌉ words: the forbidden cells, row-major
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

func (n *Node) u() []int32    { return n.s[:n.k] }
func (n *Node) v() []int32    { return n.s[n.k : 2*n.k] }
func (n *Node) nxt() []int32  { return n.s[2*n.k : 2*n.k+n.pool.inst.N] }
func (n *Node) forb() []int32 { return n.s[2*n.k+n.pool.inst.N:] }

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
	// derive's maps of the node being expanded, N entries each: rows and
	// cols (matrix index → city, the first k entries), rowAt and colAt
	// (city → matrix index, for the cities that are lines) and prv
	// (predecessor city, -1 = none).
	rows, cols, rowAt, colAt, prv []int32
	mat                           []int32 // the reduced matrix of the node being expanded
	// tally holds fill's per-line zero counts and nonzero minima, which
	// pivot and include read.
	tally  []int32
	zeros  []int32 // fill's zero offsets, row-major
	rowMin []int32 // reduce's row minima
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
	return &Node{s: make([]int32, 2*k+p.inst.N+(k*k+31)/32), k: k, pool: p}
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
	maps := make([]int32, 5*N)
	pool := &nodePool{
		inst:   in,
		base:   make([]int32, N*N),
		free:   make([][]*Node, N+1),
		rows:   maps[:N],
		cols:   maps[N : 2*N],
		rowAt:  maps[2*N : 3*N],
		colAt:  maps[3*N : 4*N],
		prv:    maps[4*N:],
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
	nxt := n.nxt()
	for i := range N {
		nxt[i] = -1
		forbid(n.forb(), i*N+i)
	}
	n.reduce(pool.base, N, N, N, nil, nil)
	return n
}

// derive writes n's line maps and predecessor array to the pool, in O(N):
// prv inverts nxt, the rows are the cities with no successor and the
// columns the cities with no predecessor, in ascending order.
func (p *nodePool) derive(n *Node) {
	nxt, prv := n.nxt(), p.prv
	for c := range prv {
		prv[c] = -1
	}
	for c, s := range nxt {
		if s >= 0 {
			prv[s] = int32(c)
		}
	}
	r, c := int32(0), int32(0)
	for city, s := range nxt {
		if s < 0 {
			p.rows[r], p.rowAt[city] = int32(city), r
			r++
		}
		if prv[city] < 0 {
			p.cols[c], p.colAt[city] = int32(city), c
			c++
		}
	}
}

// fill writes n's reduced matrix into m, k×k row-major, from derive's line
// maps, and tallies it for pivot as it goes: each line's zero count and
// smallest nonzero entry, and the zeros' offsets in row-major order.
func (n *Node) fill(m []int32) {
	p := n.pool
	k, N, base := n.k, p.inst.N, p.base
	u, v, cols, forb := n.u(), n.v(), p.cols[:k], n.forb()
	t := p.tally
	rowZeros, rowMin, colZeros, colMin := t[:k], t[k:2*k], t[2*k:3*k], t[3*k:4*k]
	for c := range colZeros {
		colZeros[c], colMin[c] = 0, infCell
	}
	zeros := p.zeros[:0]
	for i, r := range p.rows[:k] {
		row := m[i*k:][:k]
		gather(row, base[int(r)*N:][:N], cols, v, u[i])
		// The row's forbidden cells are bits [lo, lo+k) of the bitset. A
		// forbidden cell's difference may be anything, even wrapped.
		lo := i * k
		for w := lo >> 5; w<<5 < lo+k; w++ {
			b := uint32(forb[w])
			if w<<5 < lo {
				b &= ^uint32(0) << (lo - w<<5)
			}
			if end := lo + k - w<<5; end < 32 {
				b &= 1<<end - 1
			}
			for ; b != 0; b &= b - 1 {
				row[w<<5+bits.TrailingZeros32(b)-lo] = infCell
			}
		}
		rowZeros[i], rowMin[i], zeros = tally(row, colZeros, colMin, zeros, int32(lo))
	}
	p.zeros = zeros
}

// gather writes one row of a reduced matrix: row[j] = from[cols[j]] − ui
// − v[j], where from is the row's city's row of base.
//
// gather and tally are kept out of fill: inlined there, their loops share
// fill's registers and reload their indices and slices from the stack on
// every cell, which made fill about twice as slow.
//
//go:noinline
func gather(row, from, cols, v []int32, ui int32) {
	cols, v = cols[:len(row)], v[:len(row)]
	for j := range row {
		row[j] = from[cols[j]] - ui - v[j]
	}
}

// tally counts one matrix row's zeros, appending their offsets (the row's
// first offset plus the column) to zeros, and returns them with the row's
// smallest nonzero entry. It adds the row to the column tallies too.
//
//go:noinline
func tally(row, colZeros, colMin, zeros []int32, first int32) (zs, lo int32, _ []int32) {
	colZeros, colMin = colZeros[:len(row)], colMin[:len(row)]
	lo = infCell
	for j, x := range row {
		if x == 0 {
			zs++
			colZeros[j]++
			zeros = append(zeros, first+int32(j))
		} else {
			lo = min(lo, x)
			colMin[j] = min(colMin[j], x)
		}
	}
	return zs, lo, zeros
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

// pivot selects the branching zero cell of n's reduced matrix, from
// fill's tallies of it: the zero whose exclusion would raise the bound
// the most (maximum penalty = row second-minimum + column second-minimum),
// the first in row-major order on ties. Returns matrix indices; ok=false
// if the matrix has no zero (infeasible).
//
// The matrix is reduced and its entries are nonnegative, so a line's
// minimum without one of its zeros is 0 when the line holds another zero
// and its smallest nonzero entry otherwise. The tallies of each line's
// zeros and nonzero minimum therefore price every zero.
func (n *Node) pivot() (pr, pc int, ok bool) {
	k := n.k
	t := n.pool.tally
	rowZeros, rowMin, colZeros, colMin := t[:k], t[k:2*k], t[2*k:3*k], t[3*k:4*k]
	best := int64(-1)
	for _, z := range n.pool.zeros {
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
// n's reduced matrix m, fill's tallies of it and derive's maps: the row
// and column are deleted, the path fragments are merged, the edge that
// would close a premature subtour is forbidden, and the lines left
// without a zero are reduced. It consumes m and the tallies.
func (n *Node) include(m []int32, pr, pc int) *Node {
	p := n.pool
	from, to := p.rows[pr], p.cols[pc]
	k := n.k

	c := p.get(k - 1)
	c.Bound = n.Bound
	nxt := c.nxt()
	copy(nxt, n.nxt())
	nxt[from] = to
	dropAt(c.u(), n.u(), pr)
	dropAt(c.v(), n.v(), pc)

	// The child's zero counts, by the parent's line: fill's, less the
	// zeros of row pr and column pc.
	rowZeros, colZeros := p.tally[:k], p.tally[2*k:3*k]
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

	// Forbid the edge end→start that would close the merged fragment
	// start…from→to…end. from ends one fragment and to starts another:
	// were they one fragment, (from, to) would be its closing cell, which
	// is forbidden and so never the pivot. So end is a parent row other
	// than pr and start a parent column other than pc.
	start := from
	for p.prv[start] != -1 {
		start = p.prv[start]
	}
	end := to
	for nxt[end] != -1 {
		end = nxt[end]
	}
	er, sc := int(p.rowAt[end]), int(p.colAt[start])
	if m[er*k+sc] == 0 {
		rowZeros[er]--
		colZeros[sc]--
	}
	m[er*k+sc] = infCell
	// The same cell in the child's indices.
	if er > pr {
		er--
	}
	if sc > pc {
		sc--
	}
	forbid(forb, er*(k-1)+sc)
	c.reduce(m, k, pr, pc, rowZeros, colZeros)
	return c
}

// dropAt copies a line's potentials without their entry i into the
// child's.
func dropAt(dst, pot []int32, i int) {
	copy(dst, pot[:i])
	copy(dst[i:], pot[i+1:])
}

// complete finishes a size-2 node from its reduced matrix m and derive's
// maps: the two remaining edges are forced. Returns nil if neither
// assignment is feasible.
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
	rows, cols := n.pool.rows, n.pool.cols
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
	inc, exc, tour, work := n.expand()
	res := ExpandResult{Tour: tour, Work: work}
	if inc != nil || exc != nil {
		res.Children = make([]*Node, 0, 2)
		for _, c := range [2]*Node{inc, exc} {
			if c != nil {
				res.Children = append(res.Children, c)
			}
		}
	}
	return res
}

// expand is Expand without the Children slice, for the solvers: it
// returns the include and the exclude child, each nil when infeasible (and
// released), the completed tour or nil, and the work.
func (n *Node) expand() (inc, exc *Node, tour *Tour, work int) {
	n.mustBeLive("Expand")
	k := n.k
	work = 3 * k * k
	if n.Bound >= Inf {
		return nil, nil, nil, work
	}
	n.pool.derive(n)
	m := n.pool.mat[:k*k]
	n.fill(m)
	if k == 2 {
		return nil, nil, n.complete(m), work
	}
	pr, pc, ok := n.pivot()
	if !ok {
		return nil, nil, nil, work
	}
	// exclude reads m before include compacts it.
	exc = n.exclude(m, pr, pc)
	inc = n.include(m, pr, pc)
	return feasible(inc), feasible(exc), nil, work
}

// feasible returns c when its bound is finite, and otherwise releases it
// and returns nil.
func feasible(c *Node) *Node {
	if c.Bound < Inf {
		return c
	}
	c.Release()
	return nil
}
