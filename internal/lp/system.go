// Package lp implements the linear-inequality machinery of Section 4.1 of
// the ABC paper in executable form: systems of strict inequalities Ax < b
// over exact rationals, Fourier–Motzkin elimination deciding feasibility,
// sample solutions for feasible systems, and Farkas certificates
// (non-negative row combinations y with yᵀA = 0 and yᵀb <= 0) refuting
// infeasible ones — the objects of the paper's Theorem 10 (Carver's
// variant of Farkas' lemma).
//
// Two system builders mirror the paper: FromGraph constructs exactly the
// matrix of Fig. 6 (variables are message weights; rows are the bounds
// 1 < τ(e) < Ξ and one row per relevant/non-relevant cycle), and
// DifferenceSystem constructs the equivalent event-time formulation that
// internal/check solves with Bellman–Ford. Experiment E6 checks the Fig. 6
// system against the checker; TestSystemsAgreeOnFigures checks both
// formulations against it.
package lp

import (
	"errors"
	"fmt"

	"repro/internal/rat"
)

// Row is one strict inequality Σ Coeffs[j]·x[j] < B.
type Row struct {
	Coeffs []rat.Rat
	B      rat.Rat
	// Tag describes the row's origin (for diagnostics), e.g. "lower(3)",
	// "cycle(relevant 2)".
	Tag string
}

// System is a conjunction of strict linear inequalities over NumVars
// rational variables.
type System struct {
	NumVars int
	Rows    []Row
}

// AddRow appends the inequality Σ coeffs·x < b. Missing trailing
// coefficients are treated as zero.
func (s *System) AddRow(coeffs []rat.Rat, b rat.Rat, tag string) {
	row := Row{Coeffs: make([]rat.Rat, s.NumVars), B: b, Tag: tag}
	copy(row.Coeffs, coeffs)
	s.Rows = append(s.Rows, row)
}

// Solution is the outcome of Solve.
type Solution struct {
	// Feasible reports whether some x satisfies every row strictly.
	Feasible bool
	// X is a sample solution when Feasible.
	X []rat.Rat
	// Certificate, when infeasible, holds one multiplier per original row:
	// y >= 0 (not all zero) with yᵀA = 0 and yᵀb <= 0, refuting
	// feasibility per Farkas/Carver.
	Certificate []rat.Rat
}

// ErrTooLarge is returned when Fourier–Motzkin elimination exceeds the row
// budget (the method is worst-case doubly exponential; the paper-scale
// systems it exists for are tiny).
var ErrTooLarge = errors.New("lp: Fourier–Motzkin row budget exceeded")

// maxRows bounds intermediate system growth.
const maxRows = 200000

// trackedRow carries a row together with its provenance: the non-negative
// combination of original rows it was derived from.
type trackedRow struct {
	row  Row
	mult []rat.Rat // per original row
}

// Solve decides feasibility by Fourier–Motzkin elimination, producing a
// sample solution or a Farkas certificate.
func (s *System) Solve() (Solution, error) {
	// Track provenance for certificates.
	cur := make([]trackedRow, len(s.Rows))
	for i, r := range s.Rows {
		mult := make([]rat.Rat, len(s.Rows))
		mult[i] = rat.One
		coeffs := make([]rat.Rat, s.NumVars)
		copy(coeffs, r.Coeffs)
		cur[i] = trackedRow{row: Row{Coeffs: coeffs, B: r.B, Tag: r.Tag}, mult: mult}
	}

	// bounds[k] keeps the rows involving x_k at elimination time, for back
	// substitution.
	bounds := make([][]trackedRow, s.NumVars)

	for k := s.NumVars - 1; k >= 0; k-- {
		var lower, upper, rest []trackedRow
		for _, tr := range cur {
			c := tr.row.Coeffs[k]
			switch {
			case c.Sign() > 0:
				upper = append(upper, tr)
			case c.Sign() < 0:
				lower = append(lower, tr)
			default:
				rest = append(rest, tr)
			}
		}
		bounds[k] = append(append([]trackedRow{}, lower...), upper...)
		if len(lower)*len(upper)+len(rest) > maxRows {
			return Solution{}, ErrTooLarge
		}
		next := rest
		for _, lo := range lower {
			for _, up := range upper {
				next = append(next, combine(lo, up, k, s.NumVars, len(s.Rows)))
			}
		}
		cur = next
	}

	// All variables eliminated: rows are "0 < b".
	for _, tr := range cur {
		if tr.row.B.Sign() <= 0 {
			return Solution{Feasible: false, Certificate: tr.mult}, nil
		}
	}

	// Back-substitute a sample solution in increasing variable order.
	x := make([]rat.Rat, s.NumVars)
	for k := 0; k < s.NumVars; k++ {
		var lo, hi rat.Rat
		haveLo, haveHi := false, false
		for _, tr := range bounds[k] {
			c := tr.row.Coeffs[k]
			// residual = B − Σ_{j<k} coeff_j x_j (coeffs for j>k are zero at
			// this elimination stage).
			residual := tr.row.B
			for j := 0; j < k; j++ {
				if cj := tr.row.Coeffs[j]; cj.Sign() != 0 {
					residual = residual.Sub(cj.Mul(x[j]))
				}
			}
			bound := residual.Div(c)
			if c.Sign() > 0 { // x_k < bound
				if !haveHi || bound.Less(hi) {
					hi, haveHi = bound, true
				}
			} else { // x_k > bound
				if !haveLo || bound.Greater(lo) {
					lo, haveLo = bound, true
				}
			}
		}
		switch {
		case haveLo && haveHi:
			x[k] = lo.Add(hi).Div(rat.FromInt(2))
		case haveLo:
			x[k] = lo.Add(rat.One)
		case haveHi:
			x[k] = hi.Sub(rat.One)
		default:
			x[k] = rat.Zero
		}
	}
	return Solution{Feasible: true, X: x}, nil
}

// mulAddSparse returns a·l + b·u, skipping the arithmetic for zero
// entries. Rows and multiplier vectors are sparse (bound rows have one or
// two nonzero entries), so most slots take the zero-value shortcut.
func mulAddSparse(a, b, l, u rat.Rat) rat.Rat {
	switch {
	case l.Sign() == 0 && u.Sign() == 0:
		return rat.Zero
	case l.Sign() == 0:
		return b.Mul(u)
	case u.Sign() == 0:
		return a.Mul(l)
	}
	return a.Mul(l).Add(b.Mul(u))
}

// combine eliminates x_k from a lower row (negative coefficient) and an
// upper row (positive coefficient) with positive multipliers, preserving
// strictness and provenance.
func combine(lo, up trackedRow, k, numVars, numOrig int) trackedRow {
	cl := lo.row.Coeffs[k] // < 0
	cu := up.row.Coeffs[k] // > 0
	// new = cu·lo + (−cl)·up
	a, b := cu, cl.Neg()
	coeffs := make([]rat.Rat, numVars)
	for j := 0; j < numVars; j++ {
		coeffs[j] = mulAddSparse(a, b, lo.row.Coeffs[j], up.row.Coeffs[j])
	}
	mult := make([]rat.Rat, numOrig)
	for i := 0; i < numOrig; i++ {
		mult[i] = mulAddSparse(a, b, lo.mult[i], up.mult[i])
	}
	return trackedRow{
		row: Row{
			Coeffs: coeffs,
			B:      a.Mul(lo.row.B).Add(b.Mul(up.row.B)),
			Tag:    fmt.Sprintf("(%s)+(%s)", lo.row.Tag, up.row.Tag),
		},
		mult: mult,
	}
}

// Verify checks that x strictly satisfies every row.
func (s *System) Verify(x []rat.Rat) error {
	if len(x) != s.NumVars {
		return fmt.Errorf("lp: solution has %d vars, want %d", len(x), s.NumVars)
	}
	for i, r := range s.Rows {
		lhs := rat.Zero
		for j, c := range r.Coeffs {
			if c.Sign() == 0 {
				continue
			}
			lhs = lhs.Add(c.Mul(x[j]))
		}
		if !lhs.Less(r.B) {
			return fmt.Errorf("lp: row %d (%s) violated: %v !< %v", i, r.Tag, lhs, r.B)
		}
	}
	return nil
}

// VerifyCertificate checks a Farkas certificate: y >= 0, y ≠ 0, yᵀA = 0,
// yᵀb <= 0.
func (s *System) VerifyCertificate(y []rat.Rat) error {
	if len(y) != len(s.Rows) {
		return fmt.Errorf("lp: certificate has %d entries, want %d", len(y), len(s.Rows))
	}
	nonzero := false
	for i, v := range y {
		if v.Sign() < 0 {
			return fmt.Errorf("lp: certificate entry %d negative: %v", i, v)
		}
		if v.Sign() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		return errors.New("lp: certificate is zero")
	}
	for j := 0; j < s.NumVars; j++ {
		col := rat.Zero
		for i, r := range s.Rows {
			if y[i].Sign() == 0 || r.Coeffs[j].Sign() == 0 {
				continue
			}
			col = col.Add(y[i].Mul(r.Coeffs[j]))
		}
		if col.Sign() != 0 {
			return fmt.Errorf("lp: yᵀA nonzero in column %d: %v", j, col)
		}
	}
	yb := rat.Zero
	for i, r := range s.Rows {
		yb = yb.Add(y[i].Mul(r.B))
	}
	if yb.Sign() > 0 {
		return fmt.Errorf("lp: yᵀb = %v > 0", yb)
	}
	return nil
}
