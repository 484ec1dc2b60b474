// Package check decides ABC admissibility (Definition 4) of execution
// graphs and produces certificates either way:
//
//   - when the graph is admissible, a normalized delay assignment τ with
//     1 < τ(message) < Ξ and τ(local) > 0 whose existence is the content of
//     Theorem 7/Theorem 12 — returned as concrete exact rationals;
//   - when it is not, a violating relevant cycle Z with |Z−|/|Z+| >= Ξ.
//
// The checker avoids enumerating the exponentially many cycles by the
// observation (proved in the paper via Farkas' lemma, and elementary in the
// converse direction) that the ABC condition holds if and only if the
// strict difference-constraint system over event occurrence times
//
//	1 < t(v) − t(u) < Ξ   for every message edge (u, v)
//	0 < t(v) − t(u)       for every local edge (u, v)
//
// is feasible. Feasibility of difference constraints is the absence of a
// negative cycle in the constraint digraph. Strict inequalities and the
// rational Ξ = a/b are handled exactly by scaling: all times are multiplied
// by b·(E+1), where E is the number of constraint-relevant edges, making
// every constant an integer, and each strict bound is tightened by 1. Any
// simple cycle has at most E edges, so the accumulated tightenings (at most
// E) can never flip the sign of a scaled integer sum (multiples of E+1).
//
// A negative cycle in the constraint digraph maps back to a relevant cycle
// violating Definition 4: upper-bound edges are its forward messages,
// lower-bound edges its backward messages, and local edges are only ever
// traversable backward — precisely the relevance condition of Definition 3.
package check

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/causality"
	"repro/internal/cycles"
	"repro/internal/graphutil"
	"repro/internal/rat"
)

// ErrXiOutOfRange is returned when Ξ <= 1 (the ABC model requires Ξ > 1;
// see footnote 16 of the paper).
var ErrXiOutOfRange = errors.New("check: Ξ must be a rational > 1")

// Verdict is the outcome of an admissibility check.
type Verdict struct {
	// Admissible reports whether every relevant cycle Z satisfies
	// |Z−|/|Z+| < Ξ.
	Admissible bool
	// Witness is a violating relevant cycle when Admissible is false.
	Witness *cycles.Cycle
	// WitnessClass is the Definition 3 classification of Witness.
	WitnessClass cycles.Class
	// Assignment is a normalized delay assignment when Admissible is true
	// (Theorem 7).
	Assignment *Assignment
}

// ABC checks the execution graph against the ABC synchrony condition for
// the given Ξ. It runs in O(V·E) time and is exact.
func ABC(g *causality.Graph, xi rat.Rat) (Verdict, error) {
	a, b, err := xiParts(xi)
	if err != nil {
		return Verdict{}, err
	}
	p, err := newProber(g)
	if err != nil {
		return Verdict{}, err
	}
	return p.probe(a, b, true)
}

// xiParts returns Ξ = a/b in lowest terms, rejecting Ξ <= 1 and a Ξ beyond
// the int64 constraint weights.
func xiParts(xi rat.Rat) (a, b int64, err error) {
	a, b, ok := xi.Inline()
	if !xi.Greater(rat.One) {
		err = ErrXiOutOfRange
	} else if !ok {
		err = fmt.Errorf("check: Ξ=%v: numerator or denominator overflows int64", xi)
	}
	return a, b, err
}

// constraint edge label encoding: label = 3*edgeID + kind.
const (
	labelUpper = 0 // message upper bound, traversed forward
	labelLower = 1 // message lower bound, traversed backward
	labelLocal = 2 // local edge, traversed backward
)

// prober is a reusable admissibility oracle for one execution graph. The
// constraint digraph topology does not depend on the probed ratio — only
// the edge weights do — so it is built once and re-weighted per probe.
// This matters for the Stern–Brocot critical-ratio search, which issues
// O(log² K) probes against the same graph.
type prober struct {
	g  *causality.Graph
	cg *graphutil.Digraph
	e  int64 // constraint-relevant execution edges
	v  int64 // execution nodes
	// dist is the distance vector of the most recent feasible probe,
	// reused to warm-start the next probe's Bellman–Ford: consecutive
	// Stern–Brocot candidates are close, so the previous solution is
	// nearly feasible for the new weights and the sweep count collapses.
	dist []int64
}

// newProber validates the execution graph and builds the constraint
// digraph topology with placeholder weights. The DAG check runs directly
// on the execution graph's CSR adjacency — no Digraph copy.
func newProber(g *causality.Graph) (*prober, error) {
	if !g.IsDAG() {
		return nil, errors.New("check: execution graph is not a DAG")
	}
	edges := g.Edges()
	cg := graphutil.New(g.NumNodes())
	for i, edge := range edges {
		switch edge.Kind {
		case causality.Message:
			cg.AddEdge(int(edge.From), int(edge.To), 0, int32(3*i+labelUpper))
			cg.AddEdge(int(edge.To), int(edge.From), 0, int32(3*i+labelLower))
		case causality.Local:
			cg.AddEdge(int(edge.To), int(edge.From), 0, int32(3*i+labelLocal))
		default:
			return nil, fmt.Errorf("check: unknown edge kind %v", edge.Kind)
		}
	}
	return &prober{g: g, cg: cg, e: int64(len(edges)), v: int64(g.NumNodes())}, nil
}

// probe solves the scaled constraint system for Ξ = a/b. wantCerts
// controls whether certificates (assignment/witness) are built.
func (p *prober) probe(a, b int64, wantCerts bool) (Verdict, error) {
	s := p.e + 1 // strictness scale
	// Overflow guard: the largest |path sum| is bounded by (V+1)·max|w|,
	// with max|w| <= max(a,b)·S + 1. Guard the guard's own products too:
	// maxW·s+1 must not wrap before it is used as a divisor.
	maxW := a
	if b > maxW {
		maxW = b
	}
	if maxW > 0 && (maxW > (math.MaxInt64-1)/s || (p.v+2) > math.MaxInt64/(maxW*s+1)) {
		return Verdict{}, fmt.Errorf("check: graph too large for exact int64 arithmetic (V=%d, E=%d, Ξ=%d/%d)", p.v, p.e, a, b)
	}

	for i, ce := range p.cg.Edges() {
		switch ce.Label % 3 {
		case labelUpper:
			// t(v) - t(u) < a/b  =>  T(v) - T(u) <= a·S − 1.
			p.cg.SetWeight(i, a*s-1)
		case labelLower:
			// t(v) - t(u) > 1    =>  T(u) - T(v) <= −b·S − 1.
			p.cg.SetWeight(i, -b*s-1)
		case labelLocal:
			// t(v) - t(u) > 0    =>  T(u) - T(v) <= −1.
			p.cg.SetWeight(i, -1)
		}
	}

	// Warm start from the previous feasible probe's distances when their
	// magnitude leaves overflow headroom for this probe's path sums
	// (|init| + (V+2)·(max|w|+1), with the second term already certified
	// finite by the guard above).
	var init []int64
	if p.dist != nil {
		var maxInit int64
		for _, d := range p.dist {
			if d > maxInit {
				maxInit = d
			} else if -d > maxInit {
				maxInit = -d
			}
		}
		if maxInit <= math.MaxInt64-(p.v+2)*(maxW*s+1) {
			init = p.dist
		}
	}

	g := p.g
	res := p.cg.BellmanFordFrom(init)
	if res.Feasible {
		p.dist = res.Dist
		verdict := Verdict{Admissible: true}
		if wantCerts {
			verdict.Assignment = newAssignment(g, res.Dist, b*s)
		}
		return verdict, nil
	}

	verdict := Verdict{Admissible: false}
	if wantCerts {
		w, err := witnessFromNegativeCycle(g, res.NegativeCycle)
		if err != nil {
			return Verdict{}, err
		}
		verdict.Witness = &w
		verdict.WitnessClass = cycles.Classify(w)
	}
	return verdict, nil
}

// witnessFromNegativeCycle maps a negative cycle of the constraint digraph
// back to a violating relevant cycle of the execution graph.
func witnessFromNegativeCycle(g *causality.Graph, neg []graphutil.Edge) (cycles.Cycle, error) {
	steps := make([]cycles.Step, len(neg))
	for i, ce := range neg {
		edgeID := causality.EdgeID(ce.Label / 3)
		switch ce.Label % 3 {
		case labelUpper:
			steps[i] = cycles.Step{Edge: edgeID, Forward: true}
		case labelLower, labelLocal:
			steps[i] = cycles.Step{Edge: edgeID, Forward: false}
		}
	}
	c, err := cycles.NewCycle(g, steps)
	if err != nil {
		return cycles.Cycle{}, fmt.Errorf("check: internal error mapping witness: %w", err)
	}
	if cl := cycles.Classify(c); !cl.Relevant {
		return cycles.Cycle{}, fmt.Errorf("check: internal error: witness cycle not relevant: %v", c)
	}
	return c, nil
}
