package causality

import (
	"repro/internal/sim"
)

// Cut is a set of nodes of an execution graph. Cuts represent global system
// states; the consistent ones (Definition 5) are exactly the left-closed
// sets containing at least one event of every correct process.
type Cut struct {
	g  *Graph
	in []bool
}

// NewCut returns an empty cut over g.
func NewCut(g *Graph) *Cut {
	return &Cut{g: g, in: make([]bool, g.NumNodes())}
}

// Contains reports whether n is in the cut.
func (c *Cut) Contains(n NodeID) bool { return c.in[n] }

// Minus returns the set difference c \ d as a cut (not necessarily
// consistent). Used for consistent cut intervals (Definition 6):
// [⟨φ⟩, ⟨ψ⟩] = ⟨ψ⟩ \ ⟨φ⟩.
func (c *Cut) Minus(d *Cut) *Cut {
	out := NewCut(c.g)
	for i := range c.in {
		out.in[i] = c.in[i] && !d.in[i]
	}
	return out
}

// IsLeftClosed reports whether the cut contains the full causal past of
// each of its members (closure under the reflexive-transitive predecessor
// relation of the execution graph).
func (c *Cut) IsLeftClosed() bool {
	preds := c.g.Preds()
	for i, b := range c.in {
		if !b {
			continue
		}
		if p := preds[i]; p.Local >= 0 && !c.in[p.Local] || p.Msg >= 0 && !c.in[p.Msg] {
			return false
		}
	}
	return true
}

// IsConsistent reports whether the cut is consistent per Definition 5:
// left-closed and containing at least one event of every correct process.
func (c *Cut) IsConsistent() bool {
	if !c.IsLeftClosed() {
		return false
	}
	for _, p := range c.g.Trace().CorrectProcesses() {
		found := false
		for _, n := range c.g.NodesOf(p) {
			if c.in[n] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Frontier returns the last node of process p within the cut (the node
// whose post-state defines C_p(S)), or -1 if the cut has no event of p.
// Local order coincides with causal order at a single process, so the last
// kept node in the cut is the maximum w.r.t. the closure of the edge
// relation.
func (c *Cut) Frontier(p sim.ProcessID) NodeID {
	nodes := c.g.NodesOf(p)
	for i := len(nodes) - 1; i >= 0; i-- {
		if c.in[nodes[i]] {
			return nodes[i]
		}
	}
	return -1
}

// LeftClosure returns ⟨φ1, ..., φk⟩: the smallest left-closed set
// containing the given nodes — their joint causal past, inclusive.
func (g *Graph) LeftClosure(nodes ...NodeID) *Cut {
	c := NewCut(g)
	preds := g.Preds()
	stack := make([]NodeID, 0, len(nodes))
	visit := func(n NodeID) {
		if n >= 0 && !c.in[n] {
			c.in[n] = true
			stack = append(stack, n)
		}
	}
	for _, n := range nodes {
		visit(n)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(preds[v].Local)
		visit(preds[v].Msg)
	}
	return c
}

// CutAtTime returns the real-time cut at time t: all nodes whose event
// occurs at time <= t, read off the trace's events, so the graph must be
// over a fully retained trace. Real-time cuts are always left-closed
// (messages are never received before they are sent), which is the
// transfer used by Theorem 3.
func (g *Graph) CutAtTime(t sim.Time) *Cut {
	c := NewCut(g)
	for i := range g.nodes {
		if g.trace.Events[i].Time.LessEq(t) {
			c.in[i] = true
		}
	}
	return c
}

// Interval returns the consistent cut interval [⟨φ⟩, ⟨ψ⟩] := ⟨ψ⟩ \ ⟨φ⟩ of
// Definition 6.
func (g *Graph) Interval(phi, psi NodeID) *Cut {
	return g.LeftClosure(psi).Minus(g.LeftClosure(phi))
}

// CausalCone returns the cut ⟨φ⟩ — all events that happen-before φ,
// inclusive. It is the object of Lemma 4 (the causal cone property).
func (g *Graph) CausalCone(phi NodeID) *Cut { return g.LeftClosure(phi) }
