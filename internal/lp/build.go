package lp

import (
	"fmt"

	"repro/internal/causality"
	"repro/internal/cycles"
	"repro/internal/cyclespace"
	"repro/internal/rat"
)

// FromGraph builds the paper's Fig. 6 system for an execution graph:
// one variable per message e (its weight τ(e)), rows
//
//	−τ(e) < −1              (lower bounds, k rows)
//	 τ(e) < Ξ               (upper bounds, k rows)
//	Σ_{e∈Z−} τ − Σ_{e∈Z+} τ < 0   (one row per relevant cycle)
//	Σ_{e∈Z+} τ − Σ_{e∈Z−} τ < 0   (one row per non-relevant cycle)
//
// Cycles are enumerated exhaustively (the matrix view requires them
// explicitly — that is its cost compared to the difference-constraint
// formulation); complete is false if the limit truncated enumeration.
// VarOf maps message edge IDs to column indices.
func FromGraph(g *causality.Graph, xi rat.Rat, cycleLimit int) (s *System, varOf map[causality.EdgeID]int, complete bool) {
	varOf = make(map[causality.EdgeID]int)
	for i, e := range g.Edges() {
		if e.Kind == causality.Message {
			varOf[causality.EdgeID(i)] = len(varOf)
		}
	}
	s = &System{NumVars: len(varOf)}

	for id, col := range varOf {
		lower := make([]rat.Rat, s.NumVars)
		lower[col] = rat.FromInt(-1)
		s.AddRow(lower, rat.FromInt(-1), fmt.Sprintf("lower(e%d)", id))
		upper := make([]rat.Rat, s.NumVars)
		upper[col] = rat.One
		s.AddRow(upper, xi, fmt.Sprintf("upper(e%d)", id))
	}

	all, complete := cycles.Enumerate(g, cycleLimit)
	for i, c := range all {
		rv := cyclespace.RowVector(c)
		coeffs := make([]rat.Rat, s.NumVars)
		for e, coeff := range rv {
			coeffs[varOf[e]] = rat.FromInt(coeff)
		}
		kind := "relevant"
		if !cycles.Classify(c).Relevant {
			kind = "non-relevant"
		}
		s.AddRow(coeffs, rat.Zero, fmt.Sprintf("cycle(%s %d)", kind, i))
	}
	return s, varOf, complete
}

// DifferenceSystem builds the event-time formulation over one variable per
// node: 1 < t(v) − t(u) < Ξ for message edges and t(v) − t(u) > 0 for local
// edges. It is feasible exactly when the graph is ABC-admissible for Ξ
// (the system internal/check solves with Bellman–Ford).
// TestSystemsAgreeOnFigures compares the two formulations.
func DifferenceSystem(g *causality.Graph, xi rat.Rat) *System {
	s := &System{NumVars: g.NumNodes()}
	for i, e := range g.Edges() {
		u, v := int(e.From), int(e.To)
		switch e.Kind {
		case causality.Message:
			up := make([]rat.Rat, s.NumVars)
			up[v] = rat.One
			up[u] = rat.FromInt(-1)
			s.AddRow(up, xi, fmt.Sprintf("msg-upper(e%d)", i))
			lo := make([]rat.Rat, s.NumVars)
			lo[v] = rat.FromInt(-1)
			lo[u] = rat.One
			s.AddRow(lo, rat.FromInt(-1), fmt.Sprintf("msg-lower(e%d)", i))
		case causality.Local:
			lo := make([]rat.Rat, s.NumVars)
			lo[v] = rat.FromInt(-1)
			lo[u] = rat.One
			s.AddRow(lo, rat.Zero, fmt.Sprintf("local(e%d)", i))
		}
	}
	return s
}
