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
// lexicographically negative. The batch Prober and the streaming
// Incremental share this one encoding (Pair), one flat constraint store
// per execution graph (store: the arcs with weight codes, solved by a
// Yen-sweep Bellman–Ford in place for every Ξ) and one overflow rule
// (sizeGuard); newAssignment turns a pair solution into exact rational
// times.
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
	p, err := NewProber(g)
	if err != nil {
		return Verdict{}, err
	}
	return p.ABC(xi)
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
// sum, |m| <= 3·(v+1)·a within one solve, and repair heap keys subtract
// two such values. Guarding 4·(v+2)·a covers all of them.
func sizeGuard(v, a, b int64) error {
	if a > math.MaxInt64/4/(v+2) {
		return fmt.Errorf("check: graph too large for exact int64 arithmetic (V=%d, Ξ=%d/%d)", v, a, b)
	}
	return nil
}

// Prober is the reusable admissibility oracle of one execution graph: its
// constraint store (see store) is built once and solved in place for
// every Ξ probed, so a verdict and the critical-ratio search of the same
// graph share one store, one relaxation plan and one set of Bellman–Ford
// scratch. A Prober is not safe for concurrent use.
type Prober struct {
	g *causality.Graph
	s *store
}

// NewProber validates the execution graph and builds its constraint
// store. The DAG check runs directly on the execution graph.
func NewProber(g *causality.Graph) (*Prober, error) {
	if !g.IsDAG() {
		return nil, errors.New("check: execution graph is not a DAG")
	}
	s, err := newStore(g)
	if err != nil {
		return nil, err
	}
	return &Prober{g: g, s: s}, nil
}

// ABC checks the graph against the ABC synchrony condition for Ξ, like the
// package-level ABC.
func (p *Prober) ABC(xi rat.Rat) (Verdict, error) {
	a, b, err := xiParts(xi)
	if err != nil {
		return Verdict{}, err
	}
	return p.verdict(a, b)
}

// probe solves the strict constraint system for Ξ = a/b in x = b·t units.
// An infeasible result carries a negative cycle of the store's arcs.
func (p *Prober) probe(a, b int64) (bfResult, error) {
	v := p.g.NumNodes()
	if err := sizeGuard(int64(v), a, b); err != nil {
		return bfResult{}, err
	}
	return p.s.bellmanFord(v, weights(a, b)), nil
}

// verdict probes Ξ = a/b and builds the verdict with its certificate: the
// assignment when the system is feasible, the witness cycle when not.
func (p *Prober) verdict(a, b int64) (Verdict, error) {
	res, err := p.probe(a, b)
	if err != nil {
		return Verdict{}, err
	}
	if res.feasible {
		asg, err := newAssignment(p.g, res.dist, b, 1)
		if err != nil {
			return Verdict{}, err
		}
		return Verdict{Admissible: true, Assignment: asg}, nil
	}
	w, err := p.witness(res.cycle)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Admissible: false, Witness: &w, WitnessClass: cycles.Classify(w)}, nil
}

// witness maps a negative cycle of the store back to a violating relevant
// cycle of the execution graph: upper arcs are forward messages, lower
// and local arcs backward steps.
func (p *Prober) witness(neg []int32) (cycles.Cycle, error) {
	steps := make([]cycles.Step, len(neg))
	for i, id := range p.s.edgeOf(p.g, neg) {
		steps[i] = cycles.Step{Edge: id, Forward: p.s.code[neg[i]] == wUpper}
	}
	c, err := cycles.NewCycle(p.g, steps)
	if err != nil {
		return cycles.Cycle{}, fmt.Errorf("check: internal error mapping witness: %w", err)
	}
	if cl := cycles.Classify(c); !cl.Relevant {
		return cycles.Cycle{}, fmt.Errorf("check: internal error: witness cycle not relevant: %v", c)
	}
	return c, nil
}
