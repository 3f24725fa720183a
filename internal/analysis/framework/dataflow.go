package framework

// Forward-dataflow engine over a CFG: facts flow from Entry along edges,
// joined at merge points, iterated to a fixpoint over loops. The engine
// is generic over the fact representation; termination is the client's
// obligation (a finite lattice with a monotone transfer and join — the
// simlint balance check uses clamped per-key intervals over keys drawn
// from the function under analysis).

// Fact is one dataflow fact. nil means "unreachable / no information":
// the engine never calls Transfer with a nil in-fact, and blocks with no
// reachable predecessor (dead code after a return) keep a nil fact.
type Fact any

// FlowProblem describes one forward dataflow analysis.
type FlowProblem struct {
	// Entry is the fact at function entry. Must be non-nil.
	Entry Fact
	// Transfer computes a block's out-fact from its in-fact. It must not
	// mutate in; return a fresh fact (or in itself when nothing changed).
	Transfer func(b *Block, in Fact) Fact
	// Join merges two non-nil facts at a control-flow merge.
	Join func(a, b Fact) Fact
	// Equal reports whether two non-nil facts carry the same information
	// (the fixpoint test).
	Equal func(a, b Fact) bool
}

// FlowResult holds the fixpoint solution.
type FlowResult struct {
	// In and Out map each block index to its fact; nil for unreachable
	// blocks.
	In, Out []Fact
	cfg     *CFG
	p       *FlowProblem
}

// Solve runs p over c to fixpoint and returns per-block facts. Blocks
// are processed in index order each round, so the result is
// deterministic for a given graph.
func Solve(c *CFG, p *FlowProblem) *FlowResult {
	n := len(c.Blocks)
	res := &FlowResult{In: make([]Fact, n), Out: make([]Fact, n), cfg: c, p: p}

	preds := make([][]int, n)
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b.Index)
		}
	}

	for changed := true; changed; {
		changed = false
		for _, b := range c.Blocks {
			var in Fact
			if b == c.Entry {
				in = p.Entry
			}
			for _, pi := range preds[b.Index] {
				if o := res.Out[pi]; o != nil {
					if in == nil {
						in = o
					} else {
						in = p.Join(in, o)
					}
				}
			}
			if in == nil {
				continue // unreachable
			}
			res.In[b.Index] = in
			out := p.Transfer(b, in)
			if prev := res.Out[b.Index]; prev == nil || !p.Equal(prev, out) {
				res.Out[b.Index] = out
				changed = true
			}
		}
	}
	return res
}

// ExitFact returns the join over every normal exit path (the in-fact of
// the Exit block), or nil when no path reaches a normal exit (e.g. the
// function always panics or loops forever).
func (r *FlowResult) ExitFact() Fact {
	return r.In[r.cfg.Exit.Index]
}
