package lp

import (
	"errors"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestSolveSimpleFeasible(t *testing.T) {
	// 1 < x < 2.
	s := &System{NumVars: 1}
	s.AddRow([]rat.Rat{rat.FromInt(-1)}, rat.FromInt(-1), "lower")
	s.AddRow([]rat.Rat{rat.One}, rat.FromInt(2), "upper")
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("1 < x < 2 reported infeasible")
	}
	if err := s.Verify(sol.X); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSimpleInfeasible(t *testing.T) {
	// x < 1 and x > 2.
	s := &System{NumVars: 1}
	s.AddRow([]rat.Rat{rat.One}, rat.One, "upper")
	s.AddRow([]rat.Rat{rat.FromInt(-1)}, rat.FromInt(-2), "lower")
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Fatal("x < 1 ∧ x > 2 reported feasible")
	}
	if err := s.VerifyCertificate(sol.Certificate); err != nil {
		t.Fatal(err)
	}
}

func TestStrictBoundaryInfeasible(t *testing.T) {
	// x < 1 and x > 1: infeasible only because inequalities are strict.
	s := &System{NumVars: 1}
	s.AddRow([]rat.Rat{rat.One}, rat.One, "upper")
	s.AddRow([]rat.Rat{rat.FromInt(-1)}, rat.FromInt(-1), "lower")
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Fatal("strict boundary system reported feasible")
	}
	if err := s.VerifyCertificate(sol.Certificate); err != nil {
		t.Fatal(err)
	}
}

func TestSolveTwoVariables(t *testing.T) {
	// x − y < 0, y − x < 1, 0 < x < 10, 0 < y < 10.
	s := &System{NumVars: 2}
	s.AddRow([]rat.Rat{rat.One, rat.FromInt(-1)}, rat.Zero, "x<y")
	s.AddRow([]rat.Rat{rat.FromInt(-1), rat.One}, rat.One, "y<x+1")
	s.AddRow([]rat.Rat{rat.FromInt(-1), rat.Zero}, rat.Zero, "x>0")
	s.AddRow([]rat.Rat{rat.One, rat.Zero}, rat.FromInt(10), "x<10")
	s.AddRow([]rat.Rat{rat.Zero, rat.FromInt(-1)}, rat.Zero, "y>0")
	s.AddRow([]rat.Rat{rat.Zero, rat.One}, rat.FromInt(10), "y<10")
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("feasible 2-var system reported infeasible")
	}
	if err := s.Verify(sol.X); err != nil {
		t.Fatal(err)
	}
}

func TestUnconstrainedVariables(t *testing.T) {
	s := &System{NumVars: 3} // no rows at all
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("empty system infeasible")
	}
	if err := s.Verify(sol.X); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejects(t *testing.T) {
	s := &System{NumVars: 1}
	s.AddRow([]rat.Rat{rat.One}, rat.One, "x<1")
	if err := s.Verify([]rat.Rat{rat.FromInt(5)}); err == nil {
		t.Error("Verify accepted violating point")
	}
	if err := s.Verify([]rat.Rat{rat.Zero, rat.Zero}); err == nil {
		t.Error("Verify accepted wrong arity")
	}
}

func TestVerifyCertificateRejects(t *testing.T) {
	s := &System{NumVars: 1}
	s.AddRow([]rat.Rat{rat.One}, rat.One, "x<1")
	s.AddRow([]rat.Rat{rat.FromInt(-1)}, rat.FromInt(-2), "x>2")
	if err := s.VerifyCertificate([]rat.Rat{rat.Zero, rat.Zero}); err == nil {
		t.Error("zero certificate accepted")
	}
	if err := s.VerifyCertificate([]rat.Rat{rat.FromInt(-1), rat.One}); err == nil {
		t.Error("negative certificate accepted")
	}
	if err := s.VerifyCertificate([]rat.Rat{rat.One}); err == nil {
		t.Error("wrong arity certificate accepted")
	}
	// y = (1, 1): yᵀA = 0, yᵀb = −1 <= 0: valid.
	if err := s.VerifyCertificate([]rat.Rat{rat.One, rat.One}); err != nil {
		t.Errorf("valid certificate rejected: %v", err)
	}
}

// The Fig. 6 message-weight system and the difference system agree with
// the Bellman–Ford checker on the figure graphs. Experiment E6 makes the
// same comparison for the Fig. 6 system alone.
func TestSystemsAgreeOnFigures(t *testing.T) {
	graphs := map[string]*causality.Graph{
		"fig1": scenario.BuildFig1().Graph,
		"fig2": scenario.BuildFig2().Graph,
		"fig3": scenario.BuildFig3().Graph,
		"fig4": scenario.BuildFig4().Graph,
	}
	xis := []rat.Rat{rat.New(6, 5), rat.New(5, 4), rat.FromInt(2), rat.FromInt(4)}
	for name, g := range graphs {
		for _, xi := range xis {
			want, err := check.ABC(g, xi)
			if err != nil {
				t.Fatal(err)
			}

			msgSys, _, complete := FromGraph(g, xi, 100000)
			if !complete {
				t.Fatalf("%s: cycle enumeration truncated", name)
			}
			msgSol, err := msgSys.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if msgSol.Feasible != want.Admissible {
				t.Errorf("%s Ξ=%v: Fig.6 system feasible=%v, checker admissible=%v",
					name, xi, msgSol.Feasible, want.Admissible)
			}
			if msgSol.Feasible {
				if err := msgSys.Verify(msgSol.X); err != nil {
					t.Errorf("%s Ξ=%v: %v", name, xi, err)
				}
			} else if err := msgSys.VerifyCertificate(msgSol.Certificate); err != nil {
				t.Errorf("%s Ξ=%v: bad certificate: %v", name, xi, err)
			}

			diffSys := DifferenceSystem(g, xi)
			diffSol, err := diffSys.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if diffSol.Feasible != want.Admissible {
				t.Errorf("%s Ξ=%v: difference system feasible=%v, checker admissible=%v",
					name, xi, diffSol.Feasible, want.Admissible)
			}
		}
	}
}

// On random small executions the Fig. 6 formulation matches the checker.
func TestFromGraphRandomAgreement(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		res, err := sim.Run(sim.Config{
			N: 3,
			Spawn: func(p sim.ProcessID) sim.Process {
				return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
					if env.StepIndex() < 2 {
						env.Broadcast(env.StepIndex())
					}
				})
			},
			Delays: sim.UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := causality.Build(res.Trace, causality.Options{})
		for _, xi := range []rat.Rat{rat.New(3, 2), rat.FromInt(2), rat.FromInt(3)} {
			want, err := check.ABC(g, xi)
			if err != nil {
				t.Fatal(err)
			}
			sys, _, complete := FromGraph(g, xi, 100000)
			if !complete {
				t.Skip("cycle enumeration truncated")
			}
			sol, err := sys.Solve()
			if errors.Is(err, ErrTooLarge) {
				t.Skip("system too large for Fourier–Motzkin")
			}
			if err != nil {
				t.Fatal(err)
			}
			if sol.Feasible != want.Admissible {
				t.Fatalf("seed %d Ξ=%v: Fig.6 feasible=%v, checker=%v", seed, xi, sol.Feasible, want.Admissible)
			}
		}
	}
}

func TestFig7MatrixShape(t *testing.T) {
	// The Fig. 6 matrix has 2k + l + m rows for k messages and l + m
	// cycles.
	g := scenario.BuildFig2().Graph
	sys, varOf, complete := FromGraph(g, rat.FromInt(4), 100000)
	if !complete {
		t.Fatal("truncated")
	}
	k := len(varOf)
	if k != g.MessageCount() {
		t.Errorf("vars = %d, want %d", k, g.MessageCount())
	}
	if len(sys.Rows) <= 2*k {
		t.Errorf("system has %d rows, want > %d (cycle rows missing)", len(sys.Rows), 2*k)
	}
	// Every cycle row has zero right-hand side and ±1 coefficients.
	for _, r := range sys.Rows[2*k:] {
		if r.B.Sign() != 0 {
			t.Errorf("cycle row %s has b = %v", r.Tag, r.B)
		}
		for _, c := range r.Coeffs {
			if c.Greater(rat.One) || c.Less(rat.One.Neg()) {
				t.Errorf("cycle row %s has coefficient %v", r.Tag, c)
			}
		}
	}
}
