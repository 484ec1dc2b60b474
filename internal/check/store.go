package check

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/causality"
)

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

// Arc weight codes: arc i weighs w[code[i]] for the weight vector
// w = {0, +a, −b} of Ξ = a/b.
const (
	wLocal uint8 = iota // 0: t(v) − t(u) > 0
	wUpper              // +a: message upper bound
	wLower              // −b: message lower bound
)

// weights returns the weight vector of Ξ = a/b, indexed by weight code.
func weights(a, b int64) [3]int64 { return [3]int64{0, a, -b} }

// store is the strict difference-constraint system of one execution
// graph, flat and pointer-free: arc i is the bound
// x(head[i]) − x(tail[i]) < w[code[i]]. Arcs follow the graph's edge
// order — a message edge (u, v) adds its upper arc u→v then its lower arc
// v→u, a local edge (u, v) the one arc v→u (see addEdge) — so an arc's
// position alone determines the graph edge it came from.
//
// The topology never depends on Ξ, only the weight vector does, so one
// store serves every probe of an analysis: the batch prober, the
// critical-ratio search and Incremental all solve it in place. The
// Bellman–Ford relaxation plan and scratch are kept with it and reused
// across probes.
type store struct {
	tail, head []int32
	code       []uint8

	// fwd and bwd are the Yen-sweep relaxation order (see plan); they
	// cover every arc until more are appended.
	fwd, bwd []int32
	// Bellman–Ford scratch: pair distances, the relaxing arc per node
	// (−1 for none) and predecessor-walk generation stamps, which only
	// grow, so earlier walks' stamps read as unvisited without clearing.
	dist []Pair
	pred []int32
	mark []uint32
	gen  uint32
}

// newStore returns the constraint store of g, sized exactly.
func newStore(g *causality.Graph) (*store, error) {
	m := g.NumEdges() + g.MessageCount()
	s := &store{tail: make([]int32, 0, m), head: make([]int32, 0, m), code: make([]uint8, 0, m)}
	for _, e := range g.Edges() {
		if err := s.addEdge(e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// add appends the arc tail→head with weight code w and returns its index.
func (s *store) add(tail, head int32, w uint8) int32 {
	s.tail = append(s.tail, tail)
	s.head = append(s.head, head)
	s.code = append(s.code, w)
	return int32(len(s.tail) - 1)
}

// addEdge appends the arcs of one execution graph edge (u, v):
//
//	message: 1 < t(v) − t(u) < a/b, i.e. x(v) − x(u) < a (upper arc u→v)
//	         and x(u) − x(v) < −b (lower arc v→u), in x = b·t units;
//	local:   t(v) − t(u) > 0, i.e. x(u) − x(v) < 0 (arc v→u).
func (s *store) addEdge(e causality.Edge) error {
	u, v := int32(e.From), int32(e.To)
	switch e.Kind {
	case causality.Message:
		s.add(u, v, wUpper)
		s.add(v, u, wLower)
	case causality.Local:
		s.add(v, u, wLocal)
	default:
		return fmt.Errorf("check: unknown edge kind %v", e.Kind)
	}
	return nil
}

// edgeOf maps arc indices to the graph edges they came from, by replaying
// addEdge's arc numbering over g's edge list in one pass.
func (s *store) edgeOf(g *causality.Graph, arcs []int32) []causality.EdgeID {
	want := make(map[int32]int, len(arcs))
	for i, a := range arcs {
		want[a] = i
	}
	ids := make([]causality.EdgeID, len(arcs))
	next := int32(0)
	for id, e := range g.Edges() {
		n := int32(1)
		if e.Kind == causality.Message {
			n = 2
		}
		for a := next; a < next+n; a++ {
			if i, ok := want[a]; ok {
				ids[i] = causality.EdgeID(id)
			}
		}
		next += n
	}
	return ids
}

// plan builds the relaxation order once per topology: forward arcs
// (head >= tail) by ascending tail, then backward arcs by descending tail,
// each stable in insertion order, so one pass is two flat scans. It
// depends only on the topology, never on weights.
func (s *store) plan(n int) {
	if len(s.fwd)+len(s.bwd) == len(s.tail) {
		return
	}
	// Counting sort on one key per arc: forward arcs take keys [0, n) by
	// tail, backward arcs keys [n, 2n) by descending tail.
	key := func(i int) int {
		if s.head[i] >= s.tail[i] {
			return int(s.tail[i])
		}
		return 2*n - 1 - int(s.tail[i])
	}
	start := make([]int32, 2*n+1)
	for i := range s.tail {
		start[key(i)+1]++
	}
	for k := 1; k <= 2*n; k++ {
		start[k] += start[k-1]
	}
	nfwd := start[n]
	order := make([]int32, len(s.tail))
	for i := range s.tail {
		k := key(i)
		order[start[k]] = int32(i)
		start[k]++
	}
	s.fwd, s.bwd = order[:nfwd], order[nfwd:]
}

// bfResult is the outcome of one Bellman–Ford run over a store. When
// feasible, dist solves the system (x := M + K·ε for every small enough
// ε > 0); it is the store's scratch, valid until the next run. Otherwise
// cycle is the witness: a simple cycle of the predecessor graph as arc
// indices a_1..a_k with head[a_i] == tail[a_(i+1)] (cyclically), whose
// weights sum to <= 0 — not necessarily the most negative or shortest
// one. passes counts relaxation passes: the converging one, the one whose
// predecessor graph closed a cycle, or 0 for an arcless system.
type bfResult struct {
	feasible bool
	dist     []Pair
	cycle    []int32
	passes   int
}

// bellmanFord solves the store's strict constraint system over nodes
// 0..n−1 under weight vector w, as single-source shortest paths over pair
// weights (w, −1) from a virtual super-source joined to every node by a
// (0, 0) arc, detecting negative cycles. The system is feasible exactly
// when no cycle has a lexicographically negative pair sum (equivalently,
// weight sum <= 0), and the distances form a concrete solution.
// Strictness costs no scaling: the K component counts it exactly.
//
// The relaxation loop uses Yen's two-sweep improvement of the classic
// O(V·E) pass structure (see plan): each pass relaxes forward arcs in
// ascending node order and then backward arcs in descending node order. A
// single pass thereby propagates a distance update along an entire
// monotone chain instead of one hop, so the pass count is bounded by the
// direction-alternation depth of shortest paths rather than their length.
// Execution graphs insert events in trace order, which makes the node
// order nearly topological and the alternation depth small. Yen's scheme
// converges within ⌈n/2⌉+1 passes when no negative cycle exists.
//
// Negative cycles are detected by walking the predecessor graph (each
// node's parent is the tail of the arc that last lowered its label) after
// every pass that relaxed an arc, and stopping at its first cycle. Any
// such cycle is negative: a parent arc (u,v) of pair weight w keeps
// d(v) >= d(u)+w after it is set, since d(u) only decreases, and the last
// arc set on the cycle lowered d(v) strictly below its previous value, so
// summing around the cycle gives a negative weight. Conversely, a
// relaxation in pass n+1 forces a predecessor cycle (an acyclic
// predecessor graph bounds every label below by a simple path, which n
// passes already reach), so an infeasible system stops by pass n+1 at the
// latest — usually after a handful of passes, where waiting for pass n+1
// would cost O(V·E). The caller bounds the weights (sizeGuard) so that
// walk sums fit in int64.
func (s *store) bellmanFord(n int, w [3]int64) bfResult {
	if len(s.dist) < n {
		s.dist = make([]Pair, n)
		s.pred = make([]int32, n)
		s.mark = make([]uint32, n)
		s.gen = 0
	}
	dist, pred := s.dist[:n], s.pred[:n]
	clear(dist)
	if len(s.tail) == 0 {
		return bfResult{feasible: true, dist: dist}
	}
	for i := range pred {
		pred[i] = -1
	}
	s.plan(n)
	for passes := 1; passes <= n+1; passes++ {
		relaxed := s.relax(s.fwd, dist, pred, &w)
		if s.relax(s.bwd, dist, pred, &w) {
			relaxed = true
		}
		if !relaxed {
			return bfResult{feasible: true, dist: dist, passes: passes}
		}
		if cycle := s.predCycle(pred); cycle != nil {
			return bfResult{cycle: cycle, passes: passes}
		}
	}
	panic("check: relaxation in pass n+1 without a predecessor cycle")
}

// relax runs one sweep over the arcs in order and reports whether any
// label dropped.
func (s *store) relax(order []int32, dist []Pair, pred []int32, w *[3]int64) bool {
	relaxed := false
	for _, i := range order {
		if nd := dist[s.tail[i]].Arc(w[s.code[i]]); nd.Less(dist[s.head[i]]) {
			dist[s.head[i]] = nd
			pred[s.head[i]] = i
			relaxed = true
		}
	}
	return relaxed
}

// predCycle returns a cycle of the predecessor graph (v's parent is
// tail[pred[v]]) in forward arc order, or nil if it is a forest. It walks
// each node's parent chain until a root, a node stamped by an earlier walk
// of this call, or a node stamped by this walk — a cycle. Every node is
// stamped at most once per call, so the check is O(n).
func (s *store) predCycle(pred []int32) []int32 {
	mark := s.mark[:len(pred)]
	if s.gen > math.MaxUint32-uint32(len(pred)) {
		clear(mark)
		s.gen = 0
	}
	base := s.gen
	for v0 := range pred {
		s.gen++
		id := s.gen
		v := int32(v0)
		for mark[v] <= base && pred[v] >= 0 {
			mark[v] = id
			v = s.tail[pred[v]]
		}
		if mark[v] != id {
			continue
		}
		var cycle []int32
		for u := v; ; {
			a := pred[u]
			cycle = append(cycle, a)
			if u = s.tail[a]; u == v {
				break
			}
		}
		slices.Reverse(cycle)
		return cycle
	}
	return nil
}
