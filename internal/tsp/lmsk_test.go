package tsp

import (
	"testing"
	"testing/quick"

	"repro/internal/locks"
	"repro/internal/sim"
)

func TestRootBoundIsAdmissible(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		in := NewRandomInstance(8, seed)
		root := NewRoot(in)
		opt := SolveBruteForce(in)
		if root.Bound > opt.Cost {
			t.Fatalf("seed %d: root bound %d exceeds optimum %d", seed, root.Bound, opt.Cost)
		}
	}
}

func TestSolveSerialMatchesBruteForce(t *testing.T) {
	for n := 4; n <= 9; n++ {
		for seed := uint64(1); seed <= 10; seed++ {
			in := NewRandomInstance(n, seed)
			got := SolveSerial(in)
			want := SolveBruteForce(in)
			if got.Tour.Cost != want.Cost {
				t.Fatalf("n=%d seed=%d: LMSK cost %d, brute force %d", n, seed, got.Tour.Cost, want.Cost)
			}
			if err := got.Tour.Valid(in); err != nil {
				t.Fatalf("n=%d seed=%d: invalid tour: %v", n, seed, err)
			}
		}
	}
}

func TestSolveSerialLargerInstances(t *testing.T) {
	for _, n := range []int{12, 14} {
		in := NewRandomInstance(n, 7)
		res := SolveSerial(in)
		if err := res.Tour.Valid(in); err != nil {
			t.Fatalf("n=%d: invalid tour: %v", n, err)
		}
		if res.Expansions <= n {
			t.Fatalf("n=%d: suspiciously few expansions (%d)", n, res.Expansions)
		}
	}
}

func TestChildBoundsMonotonic(t *testing.T) {
	in := NewRandomInstance(10, 3)
	var h nodeHeap
	h.push(NewRoot(in))
	for i := 0; i < 200; i++ {
		n := h.pop()
		if n == nil {
			break
		}
		out := n.Expand()
		for _, c := range out.Children {
			if c.Bound < n.Bound {
				t.Fatalf("child bound %d below parent bound %d", c.Bound, n.Bound)
			}
			h.push(c)
		}
	}
}

func TestExpandCompletesValidTours(t *testing.T) {
	in := NewRandomInstance(6, 11)
	var h nodeHeap
	h.push(NewRoot(in))
	tours := 0
	for {
		n := h.pop()
		if n == nil {
			break
		}
		out := n.Expand()
		if out.Tour != nil {
			tours++
			if err := out.Tour.Valid(in); err != nil {
				t.Fatalf("completed tour invalid: %v", err)
			}
			if out.Tour.Cost < n.Bound {
				t.Fatalf("tour cost %d below node bound %d", out.Tour.Cost, n.Bound)
			}
		}
		for _, c := range out.Children {
			h.push(c)
		}
	}
	if tours == 0 {
		t.Fatal("exhaustive expansion produced no tour")
	}
}

func TestNodeHeapOrdering(t *testing.T) {
	var h nodeHeap
	in := NewRandomInstance(4, 1)
	for _, b := range []int64{50, 10, 30, 10, 90} {
		n := NewRoot(in)
		n.Bound = b
		h.push(n)
	}
	var got []int64
	for n := h.pop(); n != nil; n = h.pop() {
		got = append(got, n.Bound)
	}
	want := []int64{10, 10, 30, 50, 90}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heap order = %v, want %v", got, want)
		}
	}
}

func TestTourValidation(t *testing.T) {
	in := NewRandomInstance(5, 2)
	good := SolveBruteForce(in)
	if err := good.Valid(in); err != nil {
		t.Fatalf("optimal tour invalid: %v", err)
	}
	bad := Tour{Order: []int{0, 1, 1, 3, 4}, Cost: good.Cost}
	if bad.Valid(in) == nil {
		t.Fatal("duplicate-city tour validated")
	}
	short := Tour{Order: []int{0, 1, 2}, Cost: 10}
	if short.Valid(in) == nil {
		t.Fatal("short tour validated")
	}
	wrongCost := Tour{Order: good.Order, Cost: good.Cost + 1}
	if wrongCost.Valid(in) == nil {
		t.Fatal("wrong-cost tour validated")
	}
}

func TestInstanceSymmetricAndReproducible(t *testing.T) {
	a := NewRandomInstance(10, 5)
	b := NewRandomInstance(10, 5)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if a.Cost[i][j] != b.Cost[i][j] {
				t.Fatal("same-seed instances differ")
			}
			if a.Cost[i][j] != a.Cost[j][i] {
				t.Fatal("instance not symmetric")
			}
			if i == j && a.Cost[i][j] != Inf {
				t.Fatal("diagonal not Inf")
			}
		}
	}
}

// Property: for random small instances the LMSK optimum always matches
// brute force and every bound on the optimal path is admissible.
func TestLMSKOptimalityProperty(t *testing.T) {
	f := func(seed uint16, nRaw uint8) bool {
		n := int(nRaw%5) + 4 // 4..8
		in := NewRandomInstance(n, uint64(seed)+1)
		return SolveSerial(in).Tour.Cost == SolveBruteForce(in).Cost
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// refBestFirst is SolveSerial's best-first search without node
// recycling: it never calls Release, so it is the oracle the recycling
// solvers must match step for step.
func refBestFirst(in *Instance) (res SerialResult, pushes int) {
	var h nodeHeap
	h.push(NewRoot(in))
	best := Inf
	var bestTour *Tour
	for h.peekBound() < best {
		out := h.pop().Expand()
		res.Expansions++
		res.WorkUnits += out.Work
		if out.Tour != nil && out.Tour.Cost < best {
			best = out.Tour.Cost
			bestTour = out.Tour
		}
		for _, c := range out.Children {
			if c.Bound < best {
				h.push(c)
				pushes++
			}
		}
	}
	res.Tour = *bestTour
	return res, pushes
}

// sameTour reports whether two tours visit the same cities in the same
// order at the same cost.
func sameTour(a, b Tour) bool {
	if a.Cost != b.Cost || len(a.Order) != len(b.Order) {
		return false
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			return false
		}
	}
	return true
}

// TestRecyclingSolversMatchReference checks that releasing dead nodes
// changes nothing a solver computes. SolveSerial must match the
// reference's tour, expansions and work exactly; SolveSequentialSim its
// tour and expansions, with the work read back from the elapsed virtual
// time. A one-searcher centralized or distributed Solve is the same
// best-first search, so it must match the tour and expansions too; the
// load-balancing organization re-queues every node it steals, which
// reorders bound ties, so there, as for every organization on four
// searchers, the optimal cost must match.
func TestRecyclingSolversMatchReference(t *testing.T) {
	const stepsPerWork = 3
	for seed := uint64(1); seed <= 20; seed++ {
		in := NewRandomInstance(8+int(seed%4), seed)
		ref, pushes := refBestFirst(in)

		ser := SolveSerial(in)
		if !sameTour(ser.Tour, ref.Tour) || ser.Expansions != ref.Expansions || ser.WorkUnits != ref.WorkUnits {
			t.Fatalf("seed %d: SolveSerial = (%v, %d exp, %d work), reference (%v, %d exp, %d work)",
				seed, ser.Tour, ser.Expansions, ser.WorkUnits, ref.Tour, ref.Expansions, ref.WorkUnits)
		}

		machine := fastMachine(1)
		seq, err := SolveSequentialSim(in, machine, stepsPerWork)
		if err != nil {
			t.Fatalf("seed %d: SolveSequentialSim: %v", seed, err)
		}
		// One queue charge per loop test (expansions plus the final one),
		// one per push, and the expansion work, after the first dispatch.
		steps := queueOpSteps*(ref.Expansions+1+pushes) + stepsPerWork*ref.WorkUnits
		wantElapsed := machine.ContextSwitch + sim.Time(steps)*machine.Instr
		if !sameTour(seq.Tour, ref.Tour) || seq.Expansions != ref.Expansions || seq.Elapsed != wantElapsed {
			t.Fatalf("seed %d: SolveSequentialSim = (%v, %d exp, elapsed %v), reference (%v, %d exp, elapsed %v)",
				seed, seq.Tour, seq.Expansions, seq.Elapsed, ref.Tour, ref.Expansions, wantElapsed)
		}

		for _, org := range []Organization{OrgCentralized, OrgDistributed, OrgDistributedLB} {
			for _, searchers := range []int{1, 4} {
				res, err := Solve(Config{
					Instance: in, Searchers: searchers, Org: org,
					LockKind: locks.KindAdaptive, Machine: fastMachine(searchers),
				})
				if err != nil {
					t.Fatalf("seed %d %s/%d: %v", seed, org, searchers, err)
				}
				if res.Tour.Cost != ref.Tour.Cost {
					t.Fatalf("seed %d %s/%d: cost %d, reference %d", seed, org, searchers, res.Tour.Cost, ref.Tour.Cost)
				}
				if searchers == 1 && org != OrgDistributedLB &&
					(!sameTour(res.Tour, ref.Tour) || res.Expansions != ref.Expansions) {
					t.Fatalf("seed %d %s/1: (%v, %d exp), reference (%v, %d exp)",
						seed, org, res.Tour, res.Expansions, ref.Tour, ref.Expansions)
				}
			}
		}
	}
}

// TestReleasedNodePanics checks that a released node is dead to every
// operation that could revive it.
func TestReleasedNodePanics(t *testing.T) {
	in := NewRandomInstance(6, 1)
	for _, tc := range []struct {
		op string
		do func(n *Node)
	}{
		{"Expand", func(n *Node) { n.Expand() }},
		{"push", func(n *Node) { var h nodeHeap; h.push(n) }},
		{"Release", func(n *Node) { n.Release() }},
	} {
		n := NewRoot(in)
		n.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released node did not panic", tc.op)
				}
			}()
			tc.do(n)
		}()
	}
}

// TestReleasedNodeIsRecycled checks that a released node's memory is
// reused by the next node of its size, with no state carried over.
func TestReleasedNodeIsRecycled(t *testing.T) {
	root := NewRoot(NewRandomInstance(7, 2))
	c := root.clone()
	c.Seq = 99
	c.Release()
	d := root.clone()
	if d != c {
		t.Fatal("clone after Release allocated instead of reusing the released node")
	}
	if d.dead || d.Seq != 0 || d.Bound != root.Bound {
		t.Fatalf("recycled node carries stale state: dead=%v Seq=%d Bound=%d (want Bound %d)", d.dead, d.Seq, d.Bound, root.Bound)
	}
}
