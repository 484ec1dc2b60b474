package check

import (
	"math/rand"
	"testing"

	"repro/internal/causality"
	"repro/internal/cycles"
	"repro/internal/rat"
	"repro/internal/sim"
)

// smallRandomGraph simulates 2–3 processes that each send to a random
// subset of the system for up to three steps, under uniform delays in
// [min, max] with min in {0, 1} and max up to 10, and returns the
// execution graph.
func smallRandomGraph(t *testing.T, seed int64) *causality.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(2)
	steps := 1 + rng.Intn(3)
	if n == 3 && steps == 3 {
		steps = 2 // keeps cycle enumeration small
	}
	min := rat.FromInt(int64(rng.Intn(2)))
	max := min.Add(rat.New(1+rng.Int63n(18), 2))
	res, err := sim.Run(sim.Config{
		N: n,
		Spawn: func(p sim.ProcessID) sim.Process {
			prng := rand.New(rand.NewSource(seed*31 + int64(p)))
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() >= steps {
					return
				}
				for q := 0; q < env.N(); q++ {
					if prng.Intn(3) > 0 {
						env.Send(sim.ProcessID(q), env.StepIndex())
					}
				}
			})
		},
		Delays: sim.UniformDelay{Min: min, Max: max},
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return causality.Build(res.Trace, causality.Options{})
}

// TestCheckerDifferential runs the pair-weight prober against the cycle
// enumeration oracle on 10^4 random small graphs: MaxRelevantRatio agrees
// with MaxRelevantRatioExhaustive; ABC agrees with the enumerated verdict
// at fixed Ξ, at the critical ratio and just above it, and with
// Exhaustive itself at one of those Ξ per graph (enumeration dominates the
// cost); every witness is a relevant cycle that violates Ξ; every
// assignment passes Validate.
func TestCheckerDifferential(t *testing.T) {
	graphs := 10_000
	if testing.Short() {
		graphs = 1_000
	}
	const limit = 20_000
	enumerated, constrained := 0, 0
	for seed := int64(0); seed < int64(graphs); seed++ {
		g := smallRandomGraph(t, seed)
		ratio, found, err := MaxRelevantRatio(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exR, exFound, complete := MaxRelevantRatioExhaustive(g, limit)
		if !complete {
			continue
		}
		enumerated++
		// MaxRelevantRatio reports only constraining ratios (> 1).
		if want := exFound && exR.Greater(rat.One); found != want || (found && !ratio.Equal(exR)) {
			t.Fatalf("seed %d: MaxRelevantRatio = %v (found=%v), exhaustive %v (found=%v)", seed, ratio, found, exR, exFound)
		}
		xis := []rat.Rat{rat.New(3, 2), rat.FromInt(2), rat.FromInt(5)}
		if found {
			constrained++
			xis = append(xis, ratio, ratio.Add(rat.New(1, 1000)))
		}
		oracle := int(seed) % len(xis)
		for i, xi := range xis {
			fast, err := ABC(g, xi)
			if err != nil {
				t.Fatalf("seed %d Ξ=%v: %v", seed, xi, err)
			}
			want := !exFound || exR.Less(xi) // Definition 4 over the enumeration
			if i == oracle {
				slow, _, err := Exhaustive(g, xi, limit)
				if err != nil {
					t.Fatal(err)
				}
				want = slow.Admissible
			}
			if fast.Admissible != want {
				t.Fatalf("seed %d Ξ=%v: prober admissible=%v, oracle %v", seed, xi, fast.Admissible, want)
			}
			if fast.Admissible {
				if err := fast.Assignment.Validate(xi); err != nil {
					t.Fatalf("seed %d Ξ=%v: %v", seed, xi, err)
				}
				continue
			}
			if !fast.WitnessClass.Relevant || cycles.Satisfies(*fast.Witness, xi) {
				t.Fatalf("seed %d Ξ=%v: witness %v (class %+v) is not a violating relevant cycle", seed, xi, *fast.Witness, fast.WitnessClass)
			}
		}
	}
	if enumerated < graphs*9/10 || constrained < enumerated/10 {
		t.Fatalf("degenerate sweep: %d of %d graphs enumerated, %d constrained", enumerated, graphs, constrained)
	}
	t.Logf("%d graphs, %d enumerated, %d with a critical ratio", graphs, enumerated, constrained)
}
