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

// TestBellmanFordConstraintGraphs solves constraint-shaped graphs of up
// to ~300 nodes: feasible distances must satisfy every constraint,
// negative-cycle witnesses must be simple closed walks over graph edges
// whose weights sum to <= 0, and the sweep must produce both verdicts.
func TestBellmanFordConstraintGraphs(t *testing.T) {
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
		res := g.BellmanFord()
		if err := checkResult(g, res); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if res.Feasible {
			feasible++
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
	res := g.BellmanFord()
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
	if res := g.BellmanFord(); !res.Feasible {
		t.Fatal("chain infeasible")
	}
	g.AddEdge(1, 2, -3, 1)
	g.AddEdge(2, 1, 1, 2)
	if res := g.BellmanFord(); res.Feasible {
		t.Fatal("negative cycle missed after AddEdge on a solved graph")
	}
	// SetWeight keeps the plan but must be reflected in the next solve.
	g.SetWeight(1, 3)
	if res := g.BellmanFord(); !res.Feasible {
		t.Fatal("reweighted graph (cycle now positive) reported infeasible")
	}
}
