package graphutil

import "slices"

// BFResult is the outcome of a Bellman–Ford run.
type BFResult struct {
	// Feasible is true when the graph contains no negative-weight cycle.
	Feasible bool
	// Dist holds, for each node, the shortest-path distance from a virtual
	// super-source connected to every node with a zero-weight edge (or, for
	// BellmanFordFrom, with the caller's initial labels). Valid only when
	// Feasible is true. For a difference-constraint system with edges u->v
	// of weight w meaning x[v] - x[u] <= w, Dist is a solution (x := Dist
	// satisfies every constraint).
	Dist []int64
	// NegativeCycle is the witness when Feasible is false: a simple cycle of
	// the predecessor graph (no node repeats), as a sequence of edges
	// e1..ek with e[i].To == e[i+1].From (cyclically) whose weights sum to a
	// negative value. It is not necessarily the most negative or shortest
	// negative cycle. Empty when Feasible is true.
	NegativeCycle []Edge
	// Passes is the number of relaxation passes run: the converging pass
	// when Feasible, the pass whose predecessor graph closed a cycle when
	// not, and 0 for an edgeless graph.
	Passes int
}

// bfPlan is the direction-partitioned CSR edge layout used by the
// relaxation loop. It depends only on the topology — never on weights —
// so it is built once per Digraph and reused across BellmanFord runs
// (the Stern–Brocot ratio search re-weights and re-solves the same graph
// O(log² K) times). AddEdge and Grow invalidate it.
type bfPlan struct {
	offF, offB []int32
	adjF, adjB []int32
}

func (g *Digraph) bfplan() *bfPlan {
	if g.plan != nil {
		return g.plan
	}
	n := g.n
	p := &bfPlan{offF: make([]int32, n+1), offB: make([]int32, n+1)}
	for _, e := range g.edges {
		if e.To >= e.From {
			p.offF[e.From+1]++
		} else {
			p.offB[e.From+1]++
		}
	}
	for i := 0; i < n; i++ {
		p.offF[i+1] += p.offF[i]
		p.offB[i+1] += p.offB[i]
	}
	p.adjF = make([]int32, p.offF[n])
	p.adjB = make([]int32, p.offB[n])
	fillF := make([]int32, n)
	fillB := make([]int32, n)
	for i, e := range g.edges {
		if e.To >= e.From {
			p.adjF[p.offF[e.From]+fillF[e.From]] = int32(i)
			fillF[e.From]++
		} else {
			p.adjB[p.offB[e.From]+fillB[e.From]] = int32(i)
			fillB[e.From]++
		}
	}
	g.plan = p
	return p
}

// BellmanFord solves single-source shortest paths from a virtual
// super-source that reaches every node with weight 0, detecting negative
// cycles. This formulation (rather than a caller-chosen source) is the one
// needed for difference-constraint feasibility: the system is feasible if
// and only if the constraint graph has no negative cycle, and the distances
// from the super-source form a concrete solution.
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
// such cycle is negative, whatever the initial labels: a parent arc (u,v)
// of weight w keeps d(v) >= d(u)+w after it is set, since d(u) only
// decreases, and the last arc set on the cycle lowered d(v) strictly
// below its previous value, so summing around the cycle gives a negative
// weight. Conversely, a relaxation in pass n+1 forces a predecessor cycle
// (an acyclic predecessor graph bounds every label below by a simple path,
// which n passes already reach), so an infeasible system stops by pass n+1
// at the latest — usually after a handful of passes, where waiting for
// pass n+1 would cost O(V·E).
func (g *Digraph) BellmanFord() BFResult {
	return g.BellmanFordFrom(nil)
}

// BellmanFordFrom is BellmanFord warm-started from the given initial node
// labels (nil means all zero). It is equivalent to attaching the virtual
// super-source with per-node edge weights init[v] instead of 0: any init
// is sound — negative-cycle detection is unaffected and a feasible result
// still satisfies every constraint — but an init close to a feasible
// solution (e.g. the Dist of a previous probe of the same topology under
// nearby weights) converges in far fewer passes. The caller must ensure
// init magnitudes leave headroom for path sums (|init| + (n+1)·max|w|
// must not overflow int64); init is not retained.
func (g *Digraph) BellmanFordFrom(init []int64) BFResult {
	n := g.n
	dist := make([]int64, n)
	if init != nil {
		copy(dist, init)
	}
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
		for u := 0; u < n; u++ {
			du := dist[u]
			for _, ei := range p.adjF[p.offF[u]:p.offF[u+1]] {
				e := g.edges[ei]
				if nd := du + e.Weight; nd < dist[e.To] {
					dist[e.To] = nd
					pred[e.To] = ei
					relaxed = true
				}
			}
		}
		for u := n - 1; u >= 0; u-- {
			du := dist[u]
			for _, ei := range p.adjB[p.offB[u]:p.offB[u+1]] {
				e := g.edges[ei]
				if nd := du + e.Weight; nd < dist[e.To] {
					dist[e.To] = nd
					pred[e.To] = ei
					relaxed = true
				}
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

// CycleWeight returns the total weight of a sequence of edges.
func CycleWeight(cycle []Edge) int64 {
	var sum int64
	for _, e := range cycle {
		sum += e.Weight
	}
	return sum
}
