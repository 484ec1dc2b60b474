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
// negative cycle in the constraint digraph. The rational Ξ = a/b is
// handled by working in x = b·t, which makes every constant an integer
// (upper bound a, lower bound −b, local 0), and strictness by
// lexicographic (m, k) pair weights: each strict bound x(v) − x(u) < w
// becomes the pair bound (w, −1), where k counts tightenings by an
// infinitesimal. A cycle violates the system exactly when its pair sum is
// lexicographically negative. The batch prober and the streaming
// Incremental share this one encoding (graphutil.Pair) and one overflow
// rule (sizeGuard); newAssignment turns a pair solution into exact
// rational times.
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

// sizeGuard is the one overflow rule of the pair arithmetic over a
// constraint graph of v nodes at Ξ = a/b (a > b): every m value is a walk
// sum, |m| <= 3·(v+1)·a within one solve, and warm starts and repair heap
// keys add or subtract two such values. Guarding 4·(v+2)·a covers all of
// them.
func sizeGuard(v, a, b int64) error {
	if a > math.MaxInt64/4/(v+2) {
		return fmt.Errorf("check: graph too large for exact int64 arithmetic (V=%d, Ξ=%d/%d)", v, a, b)
	}
	return nil
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
	v  int64 // execution nodes
	// dist is the distance vector of the most recent feasible probe,
	// reused to warm-start the next probe's Bellman–Ford: consecutive
	// Stern–Brocot candidates are close, so the previous solution is
	// nearly feasible for the new weights and the sweep count collapses.
	dist []graphutil.Pair
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
	return &prober{g: g, cg: cg, v: int64(g.NumNodes())}, nil
}

// probe solves the strict constraint system for Ξ = a/b in x = b·t units.
// wantCerts controls whether certificates (assignment/witness) are built.
func (p *prober) probe(a, b int64, wantCerts bool) (Verdict, error) {
	if err := sizeGuard(p.v, a, b); err != nil {
		return Verdict{}, err
	}
	for i, ce := range p.cg.Edges() {
		switch ce.Label % 3 {
		case labelUpper:
			// t(v) − t(u) < a/b  =>  x(v) − x(u) < a.
			p.cg.SetWeight(i, a)
		case labelLower:
			// t(v) − t(u) > 1    =>  x(u) − x(v) < −b.
			p.cg.SetWeight(i, -b)
		case labelLocal:
			// t(v) − t(u) > 0    =>  x(u) − x(v) < 0.
			p.cg.SetWeight(i, 0)
		}
	}

	// Warm start from the previous feasible probe's distances when their
	// magnitude leaves the guard's headroom for this probe's walk sums.
	var init []graphutil.Pair
	if p.dist != nil {
		if maxM, maxK := pairBounds(p.dist); max(maxM, maxK) <= math.MaxInt64-4*(p.v+2)*a {
			init = p.dist
		}
	}

	g := p.g
	res := p.cg.BellmanFordFrom(init)
	if res.Feasible {
		p.dist = res.Dist
		verdict := Verdict{Admissible: true}
		if wantCerts {
			asg, err := newAssignment(g, res.Dist, b, 1)
			if err != nil {
				return Verdict{}, err
			}
			verdict.Assignment = asg
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
