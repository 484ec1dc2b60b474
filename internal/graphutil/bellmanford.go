package graphutil

import "slices"

// Pair is a lexicographic (M, K) weight or distance, standing for M + K·ε
// with ε > 0 infinitesimal. Pairs under lexicographic order form an
// ordered group, so shortest-path reasoning carries over unchanged; a
// strict bound x[v] − x[u] < w is the non-strict pair bound
// x[v] − x[u] <= (w, −1).
type Pair struct{ M, K int64 }

// Less reports p < q lexicographically.
func (p Pair) Less(q Pair) bool { return p.M < q.M || (p.M == q.M && p.K < q.K) }

// Arc returns p extended by one strict arc of weight w: (M+w, K−1).
func (p Pair) Arc(w int64) Pair { return Pair{p.M + w, p.K - 1} }

// Sub returns p − q componentwise.
func (p Pair) Sub(q Pair) Pair { return Pair{p.M - q.M, p.K - q.K} }

// BFResult is the outcome of a Bellman–Ford run.
type BFResult struct {
	// Feasible is true when the strict system has a solution: no cycle
	// has weight sum <= 0.
	Feasible bool
	// Dist holds, for each node, the pair shortest-path distance from a
	// virtual super-source connected to every node by a (0, 0) edge,
	// every edge of weight w counting as (w, −1). Valid only when Feasible
	// is true.
	// For the strict difference-constraint system with edges u->v of
	// weight w meaning x[v] − x[u] < w, x := M + K·ε is a solution for
	// every small enough ε > 0: Dist[v] <= Dist[u] + (w, −1) for every
	// edge.
	Dist []Pair
	// NegativeCycle is the witness when Feasible is false: a simple cycle of
	// the predecessor graph (no node repeats), as a sequence of edges
	// e1..ek with e[i].To == e[i+1].From (cyclically) whose pair weights
	// sum to a negative value, i.e. whose weights sum to <= 0. It is not
	// necessarily the most negative or shortest such cycle. Empty when
	// Feasible is true.
	NegativeCycle []Edge
	// Passes is the number of relaxation passes run: the converging pass
	// when Feasible, the pass whose predecessor graph closed a cycle when
	// not, and 0 for an edgeless graph.
	Passes int
}

// bfPlan is the edge order of the relaxation loop: forward edges (To >=
// From) by ascending tail, then backward edges by descending tail, each
// stable in insertion order, so one pass is two flat scans. It depends
// only on the topology — never on weights — so it is built once per
// Digraph and reused across BellmanFord runs (the critical-ratio search
// re-weights and re-solves the same graph once per probe).
// AddEdge invalidates it.
type bfPlan struct {
	fwd, bwd []int32 // indices into Digraph.edges
}

func (g *Digraph) bfplan() *bfPlan {
	if g.plan != nil {
		return g.plan
	}
	// Counting sort on one key per edge: forward edges take keys [0, n)
	// by tail, backward edges keys [n, 2n) by descending tail.
	n := g.n
	key := func(e Edge) int {
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
	g.plan = &bfPlan{fwd: order[:nfwd], bwd: order[nfwd:]}
	return g.plan
}

// BellmanFord solves the strict difference-constraint system of the
// graph — edge u->v of weight w means x[v] − x[u] < w — as single-source
// shortest paths over pair weights (w, −1) from a virtual super-source
// joined to every node by a (0, 0) edge, detecting negative cycles. This
// formulation (rather than a caller-chosen source) is the one needed for
// feasibility: the system is feasible if and only if no cycle has a
// lexicographically negative pair sum (equivalently, weight sum <= 0), and
// the distances from the super-source form a concrete solution.
// Strictness costs no scaling: the K component counts it exactly.
//
// The relaxation loop uses Yen's two-sweep improvement of the classic
// O(V·E) pass structure: edges are partitioned by direction in the node
// order (To >= From "forward", To < From "backward"); each pass relaxes
// forward edges in ascending node order and then backward edges in
// descending node order. A single pass thereby propagates a distance
// update along an entire monotone chain instead of one hop, so the pass
// count is bounded by the direction-alternation depth of shortest paths
// rather than their length. Execution graphs insert events in trace order,
// which makes the node order nearly topological and the alternation depth
// small. Yen's scheme converges within ⌈n/2⌉+1 passes when no negative
// cycle exists.
//
// Negative cycles are detected by walking the predecessor graph (each
// node's parent is the tail of the edge that last lowered its label) after
// every pass that relaxed an edge, and stopping at its first cycle. Any
// such cycle is negative: a parent arc (u,v) of pair weight w keeps
// d(v) >= d(u)+w after it is set, since d(u) only decreases, and the last
// arc set on the cycle lowered d(v) strictly below its previous value, so
// summing around the cycle gives a negative weight. Conversely, a
// relaxation in pass n+1 forces a predecessor cycle (an acyclic
// predecessor graph bounds every label below by a simple path, which n
// passes already reach), so an infeasible system stops by pass n+1 at the
// latest — usually after a handful of passes, where waiting for pass n+1
// would cost O(V·E). The caller bounds the weights so that walk sums fit
// in int64.
func (g *Digraph) BellmanFord() BFResult {
	n := g.n
	dist := make([]Pair, n)
	pred := make([]int32, n) // index into g.edges of the relaxing edge
	for i := range pred {
		pred[i] = -1
	}
	if len(g.edges) == 0 {
		return BFResult{Feasible: true, Dist: dist}
	}
	p := g.bfplan()

	mark := make([]int, n) // predecessor-walk generation stamps
	gen := 0
	for passes := 1; passes <= n+1; passes++ {
		relaxed := false
		for _, ei := range p.fwd {
			e := &g.edges[ei]
			if nd := dist[e.From].Arc(e.Weight); nd.Less(dist[e.To]) {
				dist[e.To] = nd
				pred[e.To] = ei
				relaxed = true
			}
		}
		for _, ei := range p.bwd {
			e := &g.edges[ei]
			if nd := dist[e.From].Arc(e.Weight); nd.Less(dist[e.To]) {
				dist[e.To] = nd
				pred[e.To] = ei
				relaxed = true
			}
		}
		if !relaxed {
			return BFResult{Feasible: true, Dist: dist, Passes: passes}
		}
		if cycle := g.predCycle(pred, mark, &gen); cycle != nil {
			return BFResult{Feasible: false, NegativeCycle: cycle, Passes: passes}
		}
	}
	panic("graphutil: relaxation in pass n+1 without a predecessor cycle")
}

// predCycle returns a cycle of the predecessor graph (v's parent is
// edges[pred[v]].From) in forward edge order, or nil if it is a forest. It
// walks each node's parent chain until a root, a node stamped by an earlier
// walk of this call, or a node stamped by this walk — a cycle. Every node is
// stamped at most once per call, so the check is O(n); stamps only grow, so
// marks left by earlier calls (all <= the entry value of *gen) read as
// unvisited without clearing.
func (g *Digraph) predCycle(pred []int32, mark []int, gen *int) []Edge {
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
		var cycle []Edge
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
