package graphutil

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeRangeCheck(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Error("AddEdge out of range did not panic")
		}
	}()
	g.AddEdge(0, 2, 1, 0)
}

func TestGrow(t *testing.T) {
	g := New(3)
	first := g.Grow(2)
	if first != 3 || g.N() != 5 {
		t.Errorf("Grow: first=%d N=%d, want 3, 5", first, g.N())
	}
	g.AddEdge(4, 0, 1, 0) // must not panic
}

// cycleWeight returns the total weight of a sequence of edges; under the
// strict semantics a cycle is infeasible exactly when it is <= 0.
func cycleWeight(cycle []Edge) int64 {
	var sum int64
	for _, e := range cycle {
		sum += e.Weight
	}
	return sum
}

// satisfies reports whether pair distances d satisfy edge e strictly:
// d[To] <= d[From] + (w, −1).
func satisfies(d []Pair, e Edge) bool { return !d[e.From].Arc(e.Weight).Less(d[e.To]) }

func TestPairOrder(t *testing.T) {
	for _, tt := range []struct {
		p, q Pair
		less bool
	}{
		{Pair{0, 0}, Pair{1, -5}, true},
		{Pair{1, -5}, Pair{1, -4}, true},
		{Pair{1, -4}, Pair{1, -4}, false},
		{Pair{2, -9}, Pair{1, 9}, false},
	} {
		if got := tt.p.Less(tt.q); got != tt.less {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.p, tt.q, got, tt.less)
		}
	}
	if got := (Pair{3, 2}).Arc(-5); got != (Pair{-2, 1}) {
		t.Errorf("Arc = %v, want {-2 1}", got)
	}
	if got := (Pair{3, 2}).Sub(Pair{5, -1}); got != (Pair{-2, 3}) {
		t.Errorf("Sub = %v, want {-2 3}", got)
	}
}

func TestBellmanFordFeasible(t *testing.T) {
	// Strict difference constraints: x1-x0 < 3, x2-x1 < -2, x2-x0 < 5.
	g := New(3)
	g.AddEdge(0, 1, 3, 0)
	g.AddEdge(1, 2, -2, 1)
	g.AddEdge(0, 2, 5, 2)
	res := g.BellmanFord()
	if !res.Feasible {
		t.Fatal("feasible system reported infeasible")
	}
	for _, e := range g.Edges() {
		if !satisfies(res.Dist, e) {
			t.Errorf("Dist %v violates edge %+v", res.Dist, e)
		}
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 2, -3, 11)
	g.AddEdge(2, 1, 1, 12) // cycle 1->2->1 of weight -2
	g.AddEdge(2, 3, 5, 13)
	res := g.BellmanFord()
	if res.Feasible {
		t.Fatal("negative cycle not detected")
	}
	if w := cycleWeight(res.NegativeCycle); w > 0 {
		t.Errorf("witness cycle weight %d is positive", w)
	}
	// Witness must be a closed edge walk.
	c := res.NegativeCycle
	for i, e := range c {
		next := c[(i+1)%len(c)]
		if e.To != next.From {
			t.Errorf("witness not closed at position %d: %v -> %v", i, e, next)
		}
	}
}

func TestBellmanFordZeroCycleInfeasible(t *testing.T) {
	// x1 - x0 < 2 and x0 - x1 < -2 sum to 0 < 0: a zero-weight cycle is
	// infeasible under strict bounds, and a weight-1 cycle is not.
	g := New(2)
	g.AddEdge(0, 1, 2, 0)
	g.AddEdge(1, 0, -2, 1)
	res := g.BellmanFord()
	if res.Feasible || cycleWeight(res.NegativeCycle) != 0 {
		t.Errorf("zero-weight cycle: feasible=%v witness %v, want the zero cycle", res.Feasible, res.NegativeCycle)
	}
	g.SetWeight(1, -1)
	if res := g.BellmanFord(); !res.Feasible {
		t.Error("weight-1 cycle reported infeasible")
	}
}

func TestBellmanFordSelfLoop(t *testing.T) {
	for _, w := range []int64{-1, 0} {
		g := New(1)
		g.AddEdge(0, 0, w, 0)
		res := g.BellmanFord()
		if res.Feasible {
			t.Errorf("self-loop of weight %d not detected", w)
		}
		if len(res.NegativeCycle) != 1 {
			t.Errorf("self-loop witness has %d edges, want 1", len(res.NegativeCycle))
		}
	}
	g := New(1)
	g.AddEdge(0, 0, 1, 0)
	if res := g.BellmanFord(); !res.Feasible {
		t.Error("positive self-loop reported infeasible")
	}
}

func TestBellmanFordEmpty(t *testing.T) {
	g := New(0)
	if res := g.BellmanFord(); !res.Feasible {
		t.Error("empty graph infeasible")
	}
	g = New(5)
	res := g.BellmanFord()
	if !res.Feasible || len(res.Dist) != 5 {
		t.Error("edgeless graph mishandled")
	}
}

func TestTopoSort(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(0, 2, 0, 0)
	g.AddEdge(1, 3, 0, 0)
	g.AddEdge(2, 3, 0, 0)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("DAG reported cyclic")
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge (%d,%d) violates topo order %v", e.From, e.To, order)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 0, 0, 0)
	if _, ok := g.TopoSort(); ok {
		t.Error("cyclic graph reported as DAG")
	}
	if g.IsDAG() {
		t.Error("IsDAG true for cyclic graph")
	}
}

func TestReachable(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 2, 0, 0)
	g.AddEdge(3, 4, 0, 0)
	seen := g.Reachable(0)
	want := []bool{true, true, true, false, false}
	for v, w := range want {
		if seen[v] != w {
			t.Errorf("Reachable(0)[%d] = %v, want %v", v, seen[v], w)
		}
	}
	seen = g.Reachable(0, 3)
	if !seen[4] {
		t.Error("multi-source reachability missed node 4")
	}
}

func TestReverse(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 7, 42)
	r := g.Reverse()
	e := r.Edges()[0]
	if e.From != 1 || e.To != 0 || e.Weight != 7 || e.Label != 42 {
		t.Errorf("Reverse edge = %+v", e)
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1, 0)
	var sb strings.Builder
	err := g.WriteDOT(&sb, DOTOptions{
		Name:      "test",
		NodeLabel: func(v int) string { return "ev" },
		EdgeAttr:  func(i int, e Edge) string { return "style=dashed" },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph test", `label="ev"`, "n0 -> n1 [style=dashed]"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Default options path.
	var sb2 strings.Builder
	if err := g.WriteDOT(&sb2, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "digraph G") {
		t.Error("default graph name not used")
	}
}

// checkResult validates a Bellman–Ford result against its graph: a
// feasible Dist must satisfy every edge, and an infeasible witness must be
// a closed, simple walk (no node entered twice) over edges of g whose
// weights sum to <= 0.
func checkResult(g *Digraph, res BFResult) error {
	if res.Passes < 1 || res.Passes > g.N()+1 {
		return fmt.Errorf("%d passes outside [1, n+1=%d]", res.Passes, g.N()+1)
	}
	if res.Feasible {
		for _, e := range g.Edges() {
			if !satisfies(res.Dist, e) {
				return fmt.Errorf("dist violates edge %+v: %v > %v + (%d, -1)", e, res.Dist[e.To], res.Dist[e.From], e.Weight)
			}
		}
		return nil
	}
	c := res.NegativeCycle
	if len(c) == 0 {
		return fmt.Errorf("infeasible without a witness")
	}
	if w := cycleWeight(c); w > 0 {
		return fmt.Errorf("witness weight %d is positive: %v", w, c)
	}
	edges := make(map[Edge]bool, g.M())
	for _, e := range g.Edges() {
		edges[e] = true
	}
	entered := make(map[int]bool, len(c))
	for i, e := range c {
		if !edges[e] {
			return fmt.Errorf("witness edge %+v not in the graph", e)
		}
		if next := c[(i+1)%len(c)]; e.To != next.From {
			return fmt.Errorf("witness not closed at position %d: %+v -> %+v", i, e, next)
		}
		if entered[e.To] {
			return fmt.Errorf("witness not simple: node %d repeats in %v", e.To, c)
		}
		entered[e.To] = true
	}
	return nil
}

// Property: on random graphs of up to ~300 nodes, BellmanFord either
// returns distances satisfying every strict constraint edge, or a simple
// witness cycle of weight <= 0 — and the same holds warm-started from
// adversarial labels, with the same verdict.
func TestBellmanFordProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		if seed%2 == 0 {
			n = 2 + rng.Intn(300)
		}
		g := New(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), int64(rng.Intn(21)-10), int32(i))
		}
		if m == 0 {
			return true
		}
		res := g.BellmanFord()
		warm := g.BellmanFordFrom(adversarialInit(rng, n))
		for _, r := range []BFResult{res, warm} {
			if err := checkResult(g, r); err != nil {
				t.Logf("seed %d (n=%d, m=%d): %v", seed, n, m, err)
				return false
			}
		}
		return res.Feasible == warm.Feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
