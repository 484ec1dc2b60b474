package core

import (
	"errors"
	"testing"

	"repro/internal/rat"
	"repro/internal/sim"
)

func TestNewModelValidation(t *testing.T) {
	for _, xi := range []rat.Rat{rat.One, rat.Zero, rat.New(1, 2), rat.FromInt(-3)} {
		if _, err := NewModel(xi); !errors.Is(err, ErrBadXi) {
			t.Errorf("NewModel(%v) err = %v, want ErrBadXi", xi, err)
		}
	}
	if _, err := NewModel(rat.New(101, 100)); err != nil {
		t.Errorf("NewModel(101/100) rejected: %v", err)
	}
}

func TestMustModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustModel(1) did not panic")
		}
	}()
	MustModel(rat.One)
}

func TestDerivedConstants(t *testing.T) {
	tests := []struct {
		xi      rat.Rat
		x, rho  int64
		comment string
	}{
		{rat.FromInt(2), 4, 9, "2Ξ = 4"},
		{rat.New(3, 2), 3, 7, "2Ξ = 3"},
		{rat.New(5, 4), 3, 7, "2Ξ = 5/2, X = 3"},
		{rat.FromInt(3), 6, 13, "2Ξ = 6"},
	}
	for _, tt := range tests {
		m := MustModel(tt.xi)
		if got := m.PhasesPerRound(); got != tt.x {
			t.Errorf("Ξ=%v: X = %d, want %d (%s)", tt.xi, got, tt.x, tt.comment)
		}
		if got := m.PrecisionBound(); got != tt.x {
			t.Errorf("Ξ=%v: precision = %d, want %d", tt.xi, got, tt.x)
		}
		if got := m.BoundedProgressRho(); got != tt.rho {
			t.Errorf("Ξ=%v: ϱ = %d, want %d", tt.xi, got, tt.rho)
		}
		if !m.Xi().Equal(tt.xi) {
			t.Errorf("Xi() = %v, want %v", m.Xi(), tt.xi)
		}
	}
}

func TestRunVerified(t *testing.T) {
	m := MustModel(rat.FromInt(2))
	// Θ = 3/2 < Ξ: a Θ-Model schedule, hence ABC-admissible (Theorem 6).
	theta := sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)}
	res, g, verdict, err := m.RunVerified(sim.Config{
		N: 3,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 3 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: theta,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Admissible {
		t.Fatalf("Θ-scheduled run not admissible: %v", verdict.Witness)
	}
	if res == nil || g == nil || g.NumNodes() == 0 {
		t.Error("missing results")
	}
}

func TestGrowingDelaysAdmissible(t *testing.T) {
	// The spacecraft scenario: delays grow without bound but the execution
	// stays ABC-admissible (spread below Ξ).
	m := MustModel(rat.FromInt(2))
	growing := sim.GrowingDelay{Base: rat.One, Rate: rat.New(1, 10), Spread: rat.New(3, 2)}
	_, _, verdict, err := m.RunVerified(sim.Config{
		N: 3,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 8 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: growing,
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Admissible {
		t.Fatalf("growing-delay run not admissible: %v", verdict.Witness)
	}
}
