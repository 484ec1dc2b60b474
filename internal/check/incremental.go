package check

import (
	"errors"
	"fmt"

	"repro/internal/causality"
	"repro/internal/graphutil"
	"repro/internal/rat"
	"repro/internal/sim"
)

// Incremental is a streaming admissibility monitor: it decides the ABC
// synchrony condition (Definition 4) for a fixed Ξ over a growing trace,
// at a cost proportional to what changed rather than to the whole trace.
//
// The batch checker re-solves the full difference-constraint system with
// Bellman–Ford (O(V·E)) on every call. Incremental instead keeps the
// constraint digraph and a feasible potential alive across appends:
//
//   - Constraint weights are the package's lexicographic pairs (m, k) (see
//     the package comment): m is the integer bound in x = b·t units (upper
//     bound +a, lower bound −b, local edges 0) and k counts strict
//     tightenings (−1 per edge). No weight depends on the graph's size, so
//     weights never change once written, which is what makes the system
//     append-only.
//   - The potential is p = −x, the negated earliest schedule: arcs are
//     stored reversed and a fresh node is seeded at the minimum over its
//     incoming arcs, so only a message upper bound that binds violates it.
//     Such an arc is inserted with a Cotton–Maler repair (SAT-solver-style
//     incremental difference-constraint propagation): the previous
//     potential makes every old arc's reduced cost non-negative, so a
//     Dijkstra over reduced costs starting at the new arc's head repairs
//     the potential touching only the affected region, ~O(affected·log
//     affected) per arc. Repairs push events later, forward into the
//     causal future, not back through history. Popping the new arc's tail
//     proves a lexicographically negative cycle through the arc.
//   - On infeasibility the engine falls back once to the exact batch
//     Yen-sweep Bellman–Ford prober to extract the violating relevant
//     cycle (Theorem 7 witness), then latches: the graph only grows, and
//     inadmissibility is monotone under growth.
//
// Arc insertions follow event order, so the first infeasible insertion
// identifies the exact minimal trace prefix whose execution graph is
// inadmissible (FailedAt), even when Step consumes events in batches.
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	bld  *causality.Builder
	a, b int64

	// out is the reversed constraint digraph's out-adjacency; dist the
	// feasible potential −x (nodes without arcs sit at (0, 0)).
	out  [][]carc
	dist []graphutil.Pair

	// Dijkstra repair scratch, generation-stamped so per-repair resets are
	// O(affected), not O(V).
	cand    []graphutil.Pair
	candGen []uint32
	doneGen []uint32
	gen     uint32
	heap    []repairItem
	stats   RepairStats

	infeasible bool
	verdict    Verdict
	failedAt   int
}

// carc is one constraint arc: head node and the m component of its weight
// (every arc's k component is −1).
type carc struct {
	to int32
	m  int64
}

// RepairStats counts an Incremental's constraint work since creation.
type RepairStats struct {
	Inserted  int64 // constraint arcs inserted
	Repairs   int64 // inserts whose arc the potential violated
	Finalized int64 // nodes whose potential a repair moved
	Scanned   int64 // arcs scanned by repairs
}

type repairItem struct {
	key  graphutil.Pair // γ = candidate − dist, lexicographically negative
	node int32
}

// NewIncremental returns a monitor for ABC(Ξ) over t, which may be empty,
// a prefix, or complete; Step consumes whatever has been appended since
// the last call. The trace must grow in causal delivery order (anything
// the simulator produces does; see causality.Builder).
func NewIncremental(t *sim.Trace, xi rat.Rat, opts causality.Options) (*Incremental, error) {
	a, b, err := xiParts(xi)
	if err != nil {
		return nil, err
	}
	bld, err := causality.NewBuilder(t, opts)
	if err != nil {
		return nil, err
	}
	return &Incremental{bld: bld, a: a, b: b, failedAt: -1}, nil
}

// Step consumes the trace events appended since the last call and returns
// the verdict for the graph so far. Admissible verdicts carry no
// assignment (use Certify); inadmissible verdicts carry the witness cycle
// and are latched — the trace can only grow, and growth never removes a
// violating cycle.
func (inc *Incremental) Step() (Verdict, error) {
	if inc.infeasible {
		return inc.verdict, nil
	}
	g := inc.bld.Graph()
	prevE := g.NumEdges()
	if _, err := inc.bld.Append(); err != nil {
		return Verdict{}, err
	}
	v := int64(g.NumNodes())
	if err := sizeGuard(v, inc.a, inc.b); err != nil {
		return Verdict{}, err
	}

	for int64(len(inc.dist)) < v {
		inc.dist = append(inc.dist, graphutil.Pair{})
		inc.out = append(inc.out, nil)
		inc.cand = append(inc.cand, graphutil.Pair{})
		inc.candGen = append(inc.candGen, 0)
		inc.doneGen = append(inc.doneGen, 0)
	}

	// New edges arrive grouped by their head — every edge's To is that
	// batch event's fresh node (local edge first, then the message edge,
	// in builder order). Before inserting a node's arcs, seed its
	// potential at the minimum over its incoming reversed arcs: local
	// predecessor + (0, −1), sender + (−b, −1). Those arcs are then
	// satisfied, so only the message upper bound can start a repair.
	edges := g.Edges()
	for i := prevE; i < len(edges); {
		node := edges[i].To
		j := i
		for ; j < len(edges) && edges[j].To == node; j++ {
			from, w := edges[j].From, int64(0)
			if edges[j].Kind == causality.Message {
				w = -inc.b
			}
			if c := inc.dist[from].Arc(w); j == i || c.Less(inc.dist[node]) {
				inc.dist[node] = c
			}
		}
		for ; i < j; i++ {
			e := edges[i]
			feasible := true
			switch e.Kind {
			case causality.Message:
				// 1 < t(v) − t(u) < a/b: upper arc v→u with m=+a, lower
				// arc u→v with m=−b.
				feasible = inc.insert(int32(e.To), carc{to: int32(e.From), m: inc.a}) &&
					inc.insert(int32(e.From), carc{to: int32(e.To), m: -inc.b})
			case causality.Local:
				// t(v) − t(u) > 0: arc u→v with m=0.
				feasible = inc.insert(int32(e.From), carc{to: int32(e.To), m: 0})
			default:
				return Verdict{}, fmt.Errorf("check: unknown edge kind %v", e.Kind)
			}
			if !feasible {
				inc.failedAt = g.Node(e.To).TracePos
				return inc.fallback(g)
			}
		}
	}
	inc.verdict = Verdict{Admissible: true}
	return inc.verdict, nil
}

// insert adds the constraint arc tail→a and repairs the potential.
// It reports false when the arc closes a lexicographically negative cycle
// (the system became infeasible).
func (inc *Incremental) insert(tail int32, a carc) bool {
	inc.out[tail] = append(inc.out[tail], a)
	inc.stats.Inserted++
	nd := inc.dist[tail].Arc(a.m)
	if !nd.Less(inc.dist[a.to]) {
		return true // potential already satisfies the new arc
	}
	inc.stats.Repairs++
	return inc.repair(tail, a.to, nd)
}

// repair restores d(x) <= d(u) + w(u, x) for all arcs after inserting
// tail→head with candidate head value nd < d(head). It is a Dijkstra over
// reduced costs: for old arcs (x, y), w + d(x) − d(y) >= 0, so the
// improvement γ(y) = cand(y) − d(y) is non-decreasing along propagation
// paths and nodes finalize in γ order, each at most once. Reaching the
// inserted arc's tail with an improvement means the new arc would relax
// again — a negative cycle through it — and repair reports false.
func (inc *Incremental) repair(tail, head int32, nd graphutil.Pair) bool {
	inc.gen++
	gen := inc.gen
	inc.cand[head] = nd
	inc.candGen[head] = gen
	inc.heap = inc.heap[:0]
	inc.push(repairItem{key: nd.Sub(inc.dist[head]), node: head})

	for len(inc.heap) > 0 {
		it := inc.pop()
		x := it.node
		if inc.doneGen[x] == gen || inc.candGen[x] != gen {
			continue // already finalized, or a leftover from no queue entry
		}
		// dist[x] is untouched until x finalizes, so the pushed key still
		// reconstructs its candidate; a mismatch means a better candidate
		// superseded this entry (lazy decrease-key).
		if it.key != inc.cand[x].Sub(inc.dist[x]) {
			continue
		}
		if x == tail {
			return false // the new arc relaxes again: negative cycle
		}
		inc.doneGen[x] = gen
		inc.dist[x] = inc.cand[x]
		dx := inc.dist[x]
		inc.stats.Finalized++
		inc.stats.Scanned += int64(len(inc.out[x]))
		for _, arc := range inc.out[x] {
			y := arc.to
			if inc.doneGen[y] == gen {
				continue
			}
			c := dx.Arc(arc.m)
			if !c.Less(inc.dist[y]) {
				continue
			}
			if inc.candGen[y] == gen && !c.Less(inc.cand[y]) {
				continue
			}
			inc.cand[y] = c
			inc.candGen[y] = gen
			inc.push(repairItem{key: c.Sub(inc.dist[y]), node: y})
		}
	}
	return true
}

// fallback extracts the witness cycle with the exact batch prober once the
// incremental potential proves infeasibility, and latches the verdict.
func (inc *Incremental) fallback(g *causality.Graph) (Verdict, error) {
	p, err := newProber(g)
	if err != nil {
		return Verdict{}, err
	}
	v, err := p.probe(inc.a, inc.b, true)
	if err != nil {
		return Verdict{}, err
	}
	if v.Admissible {
		return Verdict{}, errors.New("check: internal error: incremental engine infeasible but batch checker admissible")
	}
	inc.infeasible = true
	inc.verdict = v
	return inc.verdict, nil
}

// Certify returns the current verdict with certificates materialized: for
// an admissible graph, a normalized delay assignment (Theorem 7), the
// negated live potential, in O(V); for an inadmissible one, the latched
// witness verdict.
func (inc *Incremental) Certify() (Verdict, error) {
	if inc.infeasible {
		return inc.verdict, nil
	}
	g := inc.bld.Graph()
	asg, err := newAssignment(g, inc.dist[:g.NumNodes()], inc.b, -1)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Admissible: true, Assignment: asg}, nil
}

// Stats returns the constraint work counters.
func (inc *Incremental) Stats() RepairStats { return inc.stats }

// Verdict returns the most recent Step verdict.
func (inc *Incremental) Verdict() Verdict { return inc.verdict }

// FailedAt returns the position in Trace.Events of the earliest event
// whose prefix graph is inadmissible, or -1 while the graph is admissible.
func (inc *Incremental) FailedAt() int { return inc.failedAt }

// Graph returns the execution graph built so far, with its adjacency
// finalized so the snapshot is safe to read concurrently — as long as no
// further Step interleaves with those reads.
func (inc *Incremental) Graph() *causality.Graph { return inc.bld.Finalize() }

// Trace returns the monitored trace.
func (inc *Incremental) Trace() *sim.Trace { return inc.bld.Graph().Trace() }

// push/pop implement a binary min-heap over lexicographic γ keys without
// interface indirection.
func (inc *Incremental) push(it repairItem) {
	h := append(inc.heap, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].key.Less(h[parent].key) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	inc.heap = h
}

func (inc *Incremental) pop() repairItem {
	h := inc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].key.Less(h[small].key) {
			small = l
		}
		if r < len(h) && h[r].key.Less(h[small].key) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	inc.heap = h
	return top
}
