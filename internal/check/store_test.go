package check

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/causality"
	"repro/internal/rat"
)

// This file tests the constraint store's Bellman–Ford. Its reference is
// oracleDigraph, the generic edge-list digraph solver the store replaced:
// 32-byte labelled edges grown by append, re-weighted in place per probe.
// It is kept here, as the oracle of TestStoreMatchesDigraphOracle, so that
// verdicts, pass counts and witness cycles stay pinned to it.

type oracleEdge struct {
	From, To int
	Weight   int64
	Label    int32 // 3·edgeID + kind, kind 0 upper, 1 lower, 2 local
}

type oracleDigraph struct {
	n     int
	edges []oracleEdge
}

type oracleResult struct {
	Feasible      bool
	Dist          []Pair
	NegativeCycle []oracleEdge
	Passes        int
}

// oracleFor builds the constraint digraph of g at Ξ = a/b in the edge
// order and labels of the former batch prober.
func oracleFor(g *causality.Graph, a, b int64) *oracleDigraph {
	d := &oracleDigraph{n: g.NumNodes()}
	add := func(from, to causality.NodeID, w int64, label int) {
		d.edges = append(d.edges, oracleEdge{From: int(from), To: int(to), Weight: w, Label: int32(label)})
	}
	for i, e := range g.Edges() {
		if e.Kind == causality.Message {
			add(e.From, e.To, a, 3*i)
			add(e.To, e.From, -b, 3*i+1)
		} else {
			add(e.To, e.From, 0, 3*i+2)
		}
	}
	return d
}

func (g *oracleDigraph) bellmanFord() oracleResult {
	n := g.n
	dist := make([]Pair, n)
	pred := make([]int32, n)
	for i := range pred {
		pred[i] = -1
	}
	if len(g.edges) == 0 {
		return oracleResult{Feasible: true, Dist: dist}
	}
	key := func(e oracleEdge) int {
		if e.To >= e.From {
			return e.From
		}
		return 2*n - 1 - e.From
	}
	start := make([]int32, 2*n+1)
	for _, e := range g.edges {
		start[key(e)+1]++
	}
	for k := 1; k <= 2*n; k++ {
		start[k] += start[k-1]
	}
	nfwd := start[n]
	order := make([]int32, len(g.edges))
	for i, e := range g.edges {
		k := key(e)
		order[start[k]] = int32(i)
		start[k]++
	}
	fwd, bwd := order[:nfwd], order[nfwd:]

	mark := make([]int, n)
	gen := 0
	for passes := 1; passes <= n+1; passes++ {
		relaxed := false
		for _, sweep := range [][]int32{fwd, bwd} {
			for _, ei := range sweep {
				e := &g.edges[ei]
				if nd := dist[e.From].Arc(e.Weight); nd.Less(dist[e.To]) {
					dist[e.To] = nd
					pred[e.To] = ei
					relaxed = true
				}
			}
		}
		if !relaxed {
			return oracleResult{Feasible: true, Dist: dist, Passes: passes}
		}
		if cycle := g.predCycle(pred, mark, &gen); cycle != nil {
			return oracleResult{NegativeCycle: cycle, Passes: passes}
		}
	}
	panic("oracle: relaxation in pass n+1 without a predecessor cycle")
}

func (g *oracleDigraph) predCycle(pred []int32, mark []int, gen *int) []oracleEdge {
	base := *gen
	for s := range pred {
		*gen++
		id := *gen
		v := s
		for mark[v] <= base && pred[v] >= 0 {
			mark[v] = id
			v = g.edges[pred[v]].From
		}
		if mark[v] != id {
			continue
		}
		var cycle []oracleEdge
		for u := v; ; {
			e := g.edges[pred[u]]
			cycle = append(cycle, e)
			if u = e.From; u == v {
				break
			}
		}
		slices.Reverse(cycle)
		return cycle
	}
	return nil
}

// TestStoreMatchesDigraphOracle solves the constraint systems of random
// execution graphs at several Ξ with the store and with the oracle, which
// must agree on feasibility, pass count, distances and the witness arc
// sequence (endpoints, weight and originating graph edge of every arc).
// One store serves all Ξ of a graph, as in the ratio search.
func TestStoreMatchesDigraphOracle(t *testing.T) {
	xis := [][2]int64{{11, 10}, {5, 4}, {3, 2}, {2, 1}, {3, 1}}
	feasible, infeasible := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := rat.New(3+rng.Int63n(12), 2)
		g := randomGraph(t, seed, 2+rng.Intn(4), 1+rng.Intn(4), rat.One, max)
		s, err := newStore(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, xi := range xis {
			a, b := xi[0], xi[1]
			got := s.bellmanFord(g.NumNodes(), weights(a, b))
			want := oracleFor(g, a, b).bellmanFord()
			if err := sameResult(g, s, weights(a, b), got, want); err != nil {
				t.Fatalf("seed %d, Ξ=%d/%d: %v", seed, a, b, err)
			}
			if got.feasible {
				feasible++
			} else {
				infeasible++
			}
		}
	}
	t.Logf("%d probes: %d feasible, %d infeasible", feasible+infeasible, feasible, infeasible)
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("degenerate sweep: %d feasible, %d infeasible", feasible, infeasible)
	}
}

func sameResult(g *causality.Graph, s *store, w [3]int64, got bfResult, want oracleResult) error {
	if got.feasible != want.Feasible || got.passes != want.Passes {
		return fmt.Errorf("feasible=%v after %d passes, oracle feasible=%v after %d",
			got.feasible, got.passes, want.Feasible, want.Passes)
	}
	if got.feasible {
		if !slices.Equal(got.dist, want.Dist) {
			return fmt.Errorf("distances differ from the oracle's")
		}
		return nil
	}
	if len(got.cycle) != len(want.NegativeCycle) {
		return fmt.Errorf("witness has %d arcs, oracle %d", len(got.cycle), len(want.NegativeCycle))
	}
	ids := s.edgeOf(g, got.cycle)
	for i, a := range got.cycle {
		e := want.NegativeCycle[i]
		if int(s.tail[a]) != e.From || int(s.head[a]) != e.To || w[s.code[a]] != e.Weight || int32(ids[i]) != e.Label/3 {
			return fmt.Errorf("witness arc %d is %d→%d (w=%d, edge %d), oracle %+v",
				i, s.tail[a], s.head[a], w[s.code[a]], ids[i], e)
		}
	}
	return nil
}

// TestIncrementalStoreIsGraphStore pins the invariant the watched ratio
// search relies on: after a run, admissible or latched inadmissible, the
// Incremental's store holds exactly the arcs of its graph's constraint
// system, in the batch store's order.
func TestIncrementalStoreIsGraphStore(t *testing.T) {
	latched := 0
	for seed := int64(0); seed < 60; seed++ {
		tr := randomBroadcastTrace(seed, 4, rat.FromInt(3))
		for _, xi := range []rat.Rat{rat.New(3, 2), rat.FromInt(2), rat.FromInt(4)} {
			inc, err := NewIncremental(tr, xi, causality.Options{})
			if err != nil {
				t.Fatal(err)
			}
			v, err := inc.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !v.Admissible {
				latched++
			}
			want, err := newStore(inc.Graph())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(inc.arcs.tail, want.tail) || !slices.Equal(inc.arcs.head, want.head) || !slices.Equal(inc.arcs.code, want.code) {
				t.Fatalf("seed %d, Ξ=%v (admissible=%v): Incremental store differs from the graph's", seed, xi, v.Admissible)
			}
		}
	}
	if latched == 0 {
		t.Fatal("no run latched inadmissible; the fallback path went untested")
	}
}

// storeOf builds a store from arcs given as {tail, head, code} triples.
func storeOf(arcs ...[3]int) *store {
	s := &store{}
	for _, a := range arcs {
		s.add(int32(a[0]), int32(a[1]), uint8(a[2]))
	}
	return s
}

// checkStoreResult validates a Bellman–Ford result against its store: a
// feasible dist must satisfy every arc, and an infeasible witness must be
// a closed, simple walk (no node entered twice) over arcs of the store
// whose weights sum to <= 0.
func checkStoreResult(s *store, n int, w [3]int64, res bfResult) error {
	if len(s.tail) > 0 && (res.passes < 1 || res.passes > n+1) {
		return fmt.Errorf("%d passes outside [1, n+1=%d]", res.passes, n+1)
	}
	if res.feasible {
		for i := range s.tail {
			if res.dist[s.tail[i]].Arc(w[s.code[i]]).Less(res.dist[s.head[i]]) {
				return fmt.Errorf("dist violates arc %d→%d (w=%d)", s.tail[i], s.head[i], w[s.code[i]])
			}
		}
		return nil
	}
	c := res.cycle
	if len(c) == 0 {
		return fmt.Errorf("infeasible without a witness")
	}
	var sum int64
	entered := make(map[int32]bool, len(c))
	for i, a := range c {
		if a < 0 || int(a) >= len(s.tail) {
			return fmt.Errorf("witness arc %d not in the store", a)
		}
		sum += w[s.code[a]]
		if next := c[(i+1)%len(c)]; s.head[a] != s.tail[next] {
			return fmt.Errorf("witness not closed at position %d", i)
		}
		if entered[s.head[a]] {
			return fmt.Errorf("witness not simple: node %d repeats", s.head[a])
		}
		entered[s.head[a]] = true
	}
	if sum > 0 {
		return fmt.Errorf("witness weight %d is positive", sum)
	}
	return nil
}

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
	// At Ξ = 3/2: x1 − x0 < 3, x2 − x1 < −2, x0 − x2 < 0.
	s := storeOf([3]int{0, 1, int(wUpper)}, [3]int{1, 2, int(wLower)}, [3]int{2, 0, int(wLocal)})
	w := weights(3, 2)
	res := s.bellmanFord(3, w)
	if !res.feasible {
		t.Fatal("feasible system reported infeasible")
	}
	if err := checkStoreResult(s, 3, w, res); err != nil {
		t.Error(err)
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	s := storeOf(
		[3]int{0, 1, int(wUpper)},
		[3]int{1, 2, int(wLower)},
		[3]int{2, 1, int(wLocal)}, // cycle 1→2→1 of weight −2
		[3]int{2, 3, int(wUpper)},
	)
	w := weights(3, 2)
	res := s.bellmanFord(4, w)
	if res.feasible {
		t.Fatal("negative cycle not detected")
	}
	if err := checkStoreResult(s, 4, w, res); err != nil {
		t.Error(err)
	}
	if !slices.Equal(res.cycle, []int32{1, 2}) && !slices.Equal(res.cycle, []int32{2, 1}) {
		t.Errorf("witness arcs %v, want the cycle 1→2→1 (arcs 1 and 2)", res.cycle)
	}
}

func TestBellmanFordZeroCycleInfeasible(t *testing.T) {
	// x1 − x0 < a and x0 − x1 < −b sum to a − b: at a = b = 2 a
	// zero-weight cycle is infeasible under strict bounds; re-solving the
	// same store at a = 2, b = 1 (weight-1 cycle) is feasible.
	s := storeOf([3]int{0, 1, int(wUpper)}, [3]int{1, 0, int(wLower)})
	res := s.bellmanFord(2, weights(2, 2))
	if res.feasible || len(res.cycle) != 2 {
		t.Errorf("zero-weight cycle: feasible=%v witness %v, want the zero cycle", res.feasible, res.cycle)
	}
	if res := s.bellmanFord(2, weights(2, 1)); !res.feasible {
		t.Error("weight-1 cycle reported infeasible")
	}
}

func TestBellmanFordEmpty(t *testing.T) {
	s := &store{}
	if res := s.bellmanFord(0, weights(2, 1)); !res.feasible {
		t.Error("empty system infeasible")
	}
	res := s.bellmanFord(5, weights(2, 1))
	if !res.feasible || len(res.dist) != 5 || res.passes != 0 {
		t.Errorf("arcless system mishandled: %+v", res)
	}
}

func TestBellmanFordSelfLoop(t *testing.T) {
	for _, w := range [][3]int64{weights(2, 1), weights(0, 0)} {
		s := storeOf([3]int{0, 0, int(wLower)})
		res := s.bellmanFord(1, w)
		if res.feasible {
			t.Errorf("self-loop of weight %d not detected", w[wLower])
		}
		if len(res.cycle) != 1 {
			t.Errorf("self-loop witness has %d arcs, want 1", len(res.cycle))
		}
	}
	s := storeOf([3]int{0, 0, int(wUpper)})
	if res := s.bellmanFord(1, weights(1, 1)); !res.feasible {
		t.Error("positive self-loop reported infeasible")
	}
}

// TestPlanInvalidation pins that the relaxation plan tracks the arcs
// appended after a solve, as Incremental's fallback appends them: solve,
// add a negative cycle, solve again; then re-solve under a new weight
// vector with the same plan.
func TestPlanInvalidation(t *testing.T) {
	s := storeOf([3]int{0, 1, int(wUpper)})
	if res := s.bellmanFord(3, weights(1, 3)); !res.feasible {
		t.Fatal("chain infeasible")
	}
	s.add(1, 2, wLower)
	s.add(2, 1, wUpper)
	if res := s.bellmanFord(3, weights(1, 3)); res.feasible {
		t.Fatal("negative cycle missed after appending arcs to a solved store")
	}
	if res := s.bellmanFord(3, weights(4, 3)); !res.feasible {
		t.Fatal("re-weighted store (cycle now positive) reported infeasible")
	}
}

// randomConstraintStore generates a store shaped like the checker's
// constraint systems: a random forward tree plus about `backward`
// backward arcs, with random weight codes.
func randomConstraintStore(rng *rand.Rand, n, backward int) *store {
	s := &store{}
	for i := 1; i < n; i++ {
		s.add(int32(rng.Intn(i)), int32(i), uint8(rng.Intn(3)))
		if rng.Intn(n) < backward {
			s.add(int32(i), int32(rng.Intn(i)), uint8(rng.Intn(3)))
		}
	}
	return s
}

// TestBellmanFordConstraintGraphs solves constraint-shaped stores of up to
// ~300 nodes under random weight vectors: feasible distances must satisfy
// every arc, negative-cycle witnesses must be simple closed walks over
// store arcs whose weights sum to <= 0, and the sweep must produce both
// verdicts.
func TestBellmanFordConstraintGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		// Odd trials are large and sparse in backward arcs.
		n := 2 + rng.Intn(30)
		backward := n / 2
		if trial%2 == 1 {
			n, backward = 2+rng.Intn(300), 12
		}
		s := randomConstraintStore(rng, n, backward)
		w := weights(1+rng.Int63n(8), 1+rng.Int63n(4))
		res := s.bellmanFord(n, w)
		if err := checkStoreResult(s, n, w, res); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if res.feasible {
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
// 10^4-node forward chain of lower arcs ending in a 3-arc negative cycle
// must be reported infeasible within a few passes, not after n+1, with
// the 3-arc cycle itself as the witness.
func TestBellmanFordStopsAtFirstPredecessorCycle(t *testing.T) {
	const n = 10_000
	s := &store{}
	for v := 0; v+1 < n; v++ {
		s.add(int32(v), int32(v+1), wLower)
	}
	s.add(n-1, n-3, wUpper) // closes n-3 → n-2 → n-1 → n-3, weight −1
	w := weights(1, 1)
	res := s.bellmanFord(n, w)
	if res.feasible {
		t.Fatal("negative cycle not detected")
	}
	if res.passes > 3 {
		t.Errorf("infeasible verdict after %d passes, want at most 3 (n+1 = %d)", res.passes, n+1)
	}
	if err := checkStoreResult(s, n, w, res); err != nil {
		t.Fatal(err)
	}
	if len(res.cycle) != 3 {
		t.Errorf("witness has %d arcs, want the 3-arc cycle: %v", len(res.cycle), res.cycle)
	}
}

// Property: on the constraint systems of random execution graphs at a
// random Ξ, the store's Bellman–Ford either returns distances satisfying
// every strict constraint, or a simple witness cycle of weight <= 0.
func TestBellmanFordProperty(t *testing.T) {
	f := func(seed int64, xiNum, xiExtra uint8) bool {
		b := int64(xiNum%7) + 1
		a := b + int64(xiExtra%9) + 1
		tr := randomBroadcastTrace(seed, 3, rat.New(int64(xiExtra%5)+2, 1))
		g := causality.Build(tr, causality.Options{})
		s, err := newStore(g)
		if err != nil {
			t.Log(err)
			return false
		}
		w := weights(a, b)
		if err := checkStoreResult(s, g.NumNodes(), w, s.bellmanFord(g.NumNodes(), w)); err != nil {
			t.Logf("seed %d, Ξ=%d/%d: %v", seed, a, b, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
