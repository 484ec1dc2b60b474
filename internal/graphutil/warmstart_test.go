package graphutil

import (
	"math/rand"
	"testing"
)

// randomConstraintGraph generates a digraph shaped like the checker's
// constraint systems: a random forward tree plus about `backward`
// backward lower-bound edges, with weights drawn so that both feasible
// and infeasible instances occur.
func randomConstraintGraph(rng *rand.Rand, n, backward int) *Digraph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(rng.Intn(i), i, rng.Int63n(9)-1, int32(i))
		if rng.Intn(n) < backward {
			g.AddEdge(i, rng.Intn(i), rng.Int63n(6)-4, int32(-i))
		}
	}
	return g
}

// adversarialInit returns warm-start labels mixing small noise with deep
// negative labels: a node labelled far below every path sum is never
// relaxed, so it stays a root (pred == -1) that predecessor walks from
// other nodes run into.
func adversarialInit(rng *rand.Rand, n int) []Pair {
	init := make([]Pair, n)
	for i := range init {
		if rng.Intn(4) == 0 {
			init[i] = Pair{-1_000_000 - rng.Int63n(1000), rng.Int63n(41) - 20}
		} else {
			init[i] = Pair{rng.Int63n(41) - 20, rng.Int63n(41) - 20}
		}
	}
	return init
}

// TestBellmanFordFromAgreesWithCold runs warm-started solves from
// arbitrary (even adversarial) initial labels on graphs of up to ~300
// nodes: feasibility verdicts must match the cold run, warm distances must
// still satisfy every constraint, and negative-cycle witnesses must still
// be simple closed walks over graph edges whose weights sum to <= 0.
func TestBellmanFordFromAgreesWithCold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		// Odd trials are large and sparse in backward edges, which keeps
		// about half of them feasible.
		n := 2 + rng.Intn(30)
		backward := n / 2
		if trial%2 == 1 {
			n, backward = 2+rng.Intn(300), 12
		}
		g := randomConstraintGraph(rng, n, backward)
		cold := g.BellmanFordFrom(nil)
		if err := checkResult(g, cold); err != nil {
			t.Fatalf("trial %d (n=%d) cold: %v", trial, n, err)
		}

		for warmTrial := 0; warmTrial < 3; warmTrial++ {
			warm := g.BellmanFordFrom(adversarialInit(rng, n))
			if warm.Feasible != cold.Feasible {
				t.Fatalf("trial %d: warm feasible=%v, cold=%v", trial, warm.Feasible, cold.Feasible)
			}
			if err := checkResult(g, warm); err != nil {
				t.Fatalf("trial %d (n=%d) warm: %v", trial, n, err)
			}
		}
		if cold.Feasible {
			feasible++
			// Re-solving warm from the solution itself must converge
			// immediately to the same verdict.
			again := g.BellmanFordFrom(cold.Dist)
			if !again.Feasible || again.Passes != 1 {
				t.Fatalf("trial %d: solution-warmed solve feasible=%v in %d passes, want feasible in 1",
					trial, again.Feasible, again.Passes)
			}
			if err := checkResult(g, again); err != nil {
				t.Fatalf("trial %d: solution-warmed solve: %v", trial, err)
			}
		} else {
			infeasible++
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("degenerate sweep: %d feasible, %d infeasible", feasible, infeasible)
	}
}

// TestBellmanFordStopsAtFirstPredecessorCycle pins the early exit: a
// 10^4-node forward chain ending in a 3-edge negative cycle must be
// reported infeasible within a few passes, not after n+1, with the
// 3-edge cycle itself as the witness.
func TestBellmanFordStopsAtFirstPredecessorCycle(t *testing.T) {
	const n = 10_000
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, -1, int32(v))
	}
	g.AddEdge(n-1, n-3, 1, n) // closes n-3 -> n-2 -> n-1 -> n-3, weight -1
	res := g.BellmanFordFrom(nil)
	if res.Feasible {
		t.Fatal("negative cycle not detected")
	}
	if res.Passes > 3 {
		t.Errorf("infeasible verdict after %d passes, want at most 3 (n+1 = %d)", res.Passes, n+1)
	}
	if err := checkResult(g, res); err != nil {
		t.Fatal(err)
	}
	if len(res.NegativeCycle) != 3 {
		t.Errorf("witness has %d edges, want the 3-edge cycle: %v", len(res.NegativeCycle), res.NegativeCycle)
	}
}

// TestPlanInvalidation pins that the cached relaxation plan tracks
// topology changes: solve, add a negative cycle, solve again.
func TestPlanInvalidation(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 0)
	if res := g.BellmanFordFrom(nil); !res.Feasible {
		t.Fatal("chain infeasible")
	}
	g.AddEdge(1, 2, -3, 1)
	g.AddEdge(2, 1, 1, 2)
	if res := g.BellmanFordFrom(nil); res.Feasible {
		t.Fatal("negative cycle missed after AddEdge on a solved graph")
	}
	// SetWeight keeps the plan but must be reflected in the next solve.
	g.SetWeight(1, 3)
	if res := g.BellmanFordFrom(nil); !res.Feasible {
		t.Fatal("reweighted graph (cycle now positive) reported infeasible")
	}
}
