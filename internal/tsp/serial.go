package tsp

import (
	"container/heap"
	"fmt"
)

// nodeHeap is a best-first priority queue of subproblems ordered by lower
// bound, with insertion order breaking ties so runs are deterministic.
type nodeHeap struct {
	ns  []*Node
	seq uint64
}

func (h *nodeHeap) Len() int { return len(h.ns) }
func (h *nodeHeap) Less(i, j int) bool {
	if h.ns[i].Bound != h.ns[j].Bound {
		return h.ns[i].Bound < h.ns[j].Bound
	}
	return h.ns[i].Seq < h.ns[j].Seq
}
func (h *nodeHeap) Swap(i, j int) { h.ns[i], h.ns[j] = h.ns[j], h.ns[i] }
func (h *nodeHeap) Push(x interface{}) {
	n := x.(*Node)
	h.seq++
	n.Seq = h.seq
	h.ns = append(h.ns, n)
}
func (h *nodeHeap) Pop() interface{} {
	old := h.ns
	n := old[len(old)-1]
	old[len(old)-1] = nil
	h.ns = old[:len(old)-1]
	return n
}

// push adds a node; a released one panics.
func (h *nodeHeap) push(n *Node) {
	n.mustBeLive("push")
	heap.Push(h, n)
}

// pop removes the best node, or nil when empty.
func (h *nodeHeap) pop() *Node {
	if len(h.ns) == 0 {
		return nil
	}
	return heap.Pop(h).(*Node)
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
		out := n.Expand()
		n.Release()
		res.Expansions++
		res.WorkUnits += out.Work
		charge(out.Work * stepsPerWork)
		if out.Tour != nil && out.Tour.Cost < best {
			best = out.Tour.Cost
			bestTour = out.Tour
		}
		for _, c := range out.Children {
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
