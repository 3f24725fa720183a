package tsp

import "fmt"

// nodeHeap is a best-first priority queue of subproblems ordered by lower
// bound, with insertion order breaking ties so runs are deterministic.
// Each push takes the next Seq, so no two queued nodes tie and the pop
// order is fixed by (Bound, Seq) alone.
type nodeHeap struct {
	ns  []*Node
	seq uint64
}

// before reports whether a orders ahead of b.
func before(a, b *Node) bool {
	if a.Bound != b.Bound {
		return a.Bound < b.Bound
	}
	return a.Seq < b.Seq
}

// push adds a node, moving each parent that orders after it one level
// down and storing it where the hole stops; a released node panics.
func (h *nodeHeap) push(n *Node) {
	n.mustBeLive("push")
	h.seq++
	n.Seq = h.seq
	h.ns = append(h.ns, nil)
	i := len(h.ns) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(n, h.ns[p]) {
			break
		}
		h.ns[i] = h.ns[p]
		i = p
	}
	h.ns[i] = n
}

// pop removes the best node, or nil when empty. It refills the root by
// sifting a hole down to where the last node belongs.
func (h *nodeHeap) pop() *Node {
	if len(h.ns) == 0 {
		return nil
	}
	top := h.ns[0]
	last := len(h.ns) - 1
	x := h.ns[last]
	h.ns[last] = nil
	ns := h.ns[:last]
	h.ns = ns
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && before(ns[c+1], ns[c]) {
			c++
		}
		if !before(ns[c], x) {
			break
		}
		ns[i] = ns[c]
		i = c
	}
	ns[i] = x
	return top
}

// peekBound returns the best bound, or Inf when empty.
func (h *nodeHeap) peekBound() int64 {
	if len(h.ns) == 0 {
		return Inf
	}
	return h.ns[0].Bound
}

// SerialResult is the outcome of a sequential solve.
type SerialResult struct {
	Tour       Tour
	Expansions int
	// WorkUnits is the summed Work of all expansions, the quantity the
	// simulated solvers charge time for.
	WorkUnits int
}

// SolveSerial runs the LMSK algorithm to optimality with best-first
// search, natively (no simulation). It is both the testing oracle above
// brute-force sizes and the work model for the simulated sequential run.
func SolveSerial(in *Instance) SerialResult {
	res, ok := bestFirst(in, 1, func(int) {})
	if !ok {
		panic(fmt.Sprintf("tsp: no tour found for %s", in))
	}
	return res
}

// bestFirst is the sequential LMSK search loop. charge is told the steps
// of every operation: one queue op before each pop attempt and before
// each push, and Work·stepsPerWork after each expansion. It reports
// false when no tour was found.
func bestFirst(in *Instance, stepsPerWork int, charge func(steps int)) (SerialResult, bool) {
	var h nodeHeap
	h.push(NewRoot(in))
	best := Inf
	var bestTour *Tour
	res := SerialResult{}
	for {
		charge(queueOpSteps)
		if h.peekBound() >= best {
			break
		}
		n := h.pop()
		if n == nil {
			break
		}
		inc, exc, tour, work := n.expand()
		n.Release()
		res.Expansions++
		res.WorkUnits += work
		charge(work * stepsPerWork)
		if tour != nil && tour.Cost < best {
			best = tour.Cost
			bestTour = tour
		}
		for _, c := range [2]*Node{inc, exc} {
			if c == nil {
				continue
			}
			if c.Bound < best {
				charge(queueOpSteps)
				h.push(c)
			} else {
				c.Release()
			}
		}
	}
	if bestTour == nil {
		return res, false
	}
	res.Tour = *bestTour
	return res, true
}

// SolveBruteForce enumerates all tours (first city fixed) and returns the
// optimum. Usable only for small N; the oracle for LMSK tests.
func SolveBruteForce(in *Instance) Tour {
	if in.N > 10 {
		panic("tsp: brute force beyond 10 cities")
	}
	perm := make([]int, in.N-1)
	for i := range perm {
		perm[i] = i + 1
	}
	best := Tour{Cost: Inf}
	order := make([]int, in.N)
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			order[0] = 0
			copy(order[1:], perm)
			var cost int64
			for i := range order {
				cost += in.Cost[order[i]][order[(i+1)%in.N]]
			}
			if cost < best.Cost {
				best = Tour{Order: append([]int(nil), order...), Cost: cost}
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}
