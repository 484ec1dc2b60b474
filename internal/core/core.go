// Package core defines the ABC model itself (Section 2 of the paper): the
// synchrony parameter Ξ, admissibility of executions (Definition 4), the
// derived algorithmic constants used by Section 3's algorithms, and helpers
// for running simulations whose traces are verified admissible.
//
// The model's single constraint is that in the execution graph of an
// admissible execution, every relevant cycle Z satisfies |Z−|/|Z+| < Ξ.
// Everything else — individual delays, step times, communication patterns —
// is unconstrained.
package core

import (
	"errors"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/sim"
)

// Model is an ABC model instance with a known, perpetually holding Ξ.
// The weaker variants of Section 6 (unknown and/or eventual Ξ) live in
// internal/variants.
type Model struct {
	xi rat.Rat
}

// ErrBadXi is returned for Ξ <= 1; the ABC model requires a rational
// Ξ > 1 (footnote 16 of the paper).
var ErrBadXi = errors.New("core: Ξ must be a rational > 1")

// NewModel returns the ABC model with parameter Ξ.
func NewModel(xi rat.Rat) (Model, error) {
	if !xi.Greater(rat.One) {
		return Model{}, ErrBadXi
	}
	return Model{xi: xi}, nil
}

// MustModel is NewModel, panicking on error; for tests and examples.
func MustModel(xi rat.Rat) Model {
	m, err := NewModel(xi)
	if err != nil {
		panic(err)
	}
	return m
}

// Xi returns the synchrony parameter.
func (m Model) Xi() rat.Rat { return m.xi }

// PhasesPerRound returns X = ⌈2Ξ⌉, the number of clock phases per
// lock-step round used by Algorithm 2. The paper uses 2Ξ and notes it is
// only a lower bound; rounding up keeps clock arithmetic integral for
// rational Ξ while preserving every proof (any X >= 2Ξ makes the Lemma 4
// cycle ratio at least X/2 >= Ξ).
func (m Model) PhasesPerRound() int64 {
	return m.xi.MulInt(2).Ceil()
}

// PrecisionBound returns the clock synchronization precision guaranteed by
// Theorem 2/3 in integer phases: X = ⌈2Ξ⌉.
func (m Model) PrecisionBound() int64 { return m.PhasesPerRound() }

// BoundedProgressRho returns ϱ = 2X + 1 (Theorem 4's 4Ξ + 1, integerized
// through X = ⌈2Ξ⌉): whenever a correct process performs ϱ distinguished
// events in a consistent cut interval, every correct process performs at
// least one.
func (m Model) BoundedProgressRho() int64 { return 2*m.PhasesPerRound() + 1 }

// RunVerified runs the simulation and verifies the resulting trace is
// ABC-admissible for this model, returning the trace, its execution graph,
// and the checker verdict. A non-admissible result is not an error — the
// verdict carries the violating cycle — but callers generating executions
// for algorithm experiments should treat it as one.
func (m Model) RunVerified(cfg sim.Config) (*sim.Result, *causality.Graph, check.Verdict, error) {
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, nil, check.Verdict{}, err
	}
	g := causality.Build(res.Trace, causality.Options{})
	verdict, err := check.ABC(g, m.xi)
	if err != nil {
		return nil, nil, check.Verdict{}, err
	}
	return res, g, verdict, nil
}
