package check

import (
	"errors"
	"fmt"

	"repro/internal/causality"
	"repro/internal/rat"
	"repro/internal/sim"
)

// Incremental is a streaming admissibility monitor: it decides the ABC
// synchrony condition (Definition 4) for a fixed Ξ over a growing trace,
// at a cost proportional to what changed rather than to the whole trace.
//
// The batch checker re-solves the full difference-constraint system with
// Bellman–Ford (O(V·E)) on every call. Incremental instead keeps the
// constraint store and a feasible potential alive across appends:
//
//   - Constraint weights are the package's lexicographic pairs (m, k) (see
//     the package comment): m is the integer bound in x = b·t units (upper
//     bound +a, lower bound −b, local edges 0) and k counts strict
//     tightenings (−1 per edge). No weight depends on the graph's size, so
//     weights never change once written, which is what makes the system
//     append-only.
//   - The potential is p = −x, the negated earliest schedule: arcs are
//     traversed reversed (each node chains the arcs whose head it is) and
//     a fresh node is seeded at the minimum over its incoming reversed
//     arcs, so only a message upper bound that binds violates it.
//     Such an arc is inserted with a Cotton–Maler repair (SAT-solver-style
//     incremental difference-constraint propagation): the previous
//     potential makes every old arc's reduced cost non-negative, so a
//     Dijkstra over reduced costs starting at the new arc's head repairs
//     the potential touching only the affected region, ~O(affected·log
//     affected) per arc. Repairs push events later, forward into the
//     causal future, not back through history. Popping the new arc's tail
//     proves a lexicographically negative cycle through the arc.
//   - On infeasibility the engine falls back once to the exact batch
//     Yen-sweep Bellman–Ford, run on its own constraint store, to extract
//     the violating relevant cycle (Theorem 7 witness), then latches: the
//     graph only grows, and inadmissibility is monotone under growth.
//
// The store always holds every arc of Graph() in the batch prober's order
// (the fallback stores a failed batch's remaining arcs first), so a
// watched run's end-of-run ratio search solves it in place.
//
// Arc insertions follow event order, so the first infeasible insertion
// identifies the exact minimal trace prefix whose execution graph is
// inadmissible (FailedAt), even when Step consumes events in batches.
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	bld  *causality.Builder
	a, b int64

	// The append-only constraint store; first[x], next[i] chain the arcs
	// whose head is x newest first (−1 ends a chain), x's out-arcs in the
	// potential's reversed orientation. dist is the feasible potential −x
	// (nodes without arcs sit at (0, 0)).
	arcs   store
	first  []int32
	next   []int32
	weight [3]int64
	dist   []Pair

	// Dijkstra repair scratch, generation-stamped so per-repair resets are
	// O(affected), not O(V), and grown only once a repair starts.
	cand    []Pair
	candGen []uint32
	doneGen []uint32
	gen     uint32
	heap    []repairItem
	stats   RepairStats

	infeasible bool
	verdict    Verdict
	failedAt   int
}

// RepairStats counts an Incremental's constraint work since creation.
type RepairStats struct {
	Inserted  int64 // constraint arcs inserted
	Repairs   int64 // inserts whose arc the potential violated
	Finalized int64 // nodes whose potential a repair moved
	Scanned   int64 // arcs scanned by repairs
}

type repairItem struct {
	key  Pair // γ = candidate − dist, lexicographically negative
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
	return &Incremental{bld: bld, a: a, b: b, weight: weights(a, b), failedAt: -1}, nil
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
		inc.dist = append(inc.dist, Pair{})
		inc.first = append(inc.first, -1)
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
			u, v := int32(e.From), int32(e.To)
			feasible := true
			switch e.Kind {
			case causality.Message:
				// Upper arc u→v, then lower arc v→u (see store.addEdge);
				// a failed upper arc still stores its lower arc.
				if feasible = inc.insert(u, v, wUpper); feasible {
					feasible = inc.insert(v, u, wLower)
				} else {
					inc.arcs.add(v, u, wLower)
				}
			case causality.Local:
				feasible = inc.insert(v, u, wLocal)
			default:
				return Verdict{}, fmt.Errorf("check: unknown edge kind %v", e.Kind)
			}
			if !feasible {
				inc.failedAt = int(e.To)
				return inc.fallback(g, edges[i+1:])
			}
		}
	}
	inc.verdict = Verdict{Admissible: true}
	return inc.verdict, nil
}

// insert stores the arc tail→head, p(tail) <= p(head) + (w, −1) in the
// potential, links it into head's chain and repairs the potential. It
// reports false when the arc closes a lexicographically negative cycle
// (the system became infeasible).
func (inc *Incremental) insert(tail, head int32, w uint8) bool {
	i := inc.arcs.add(tail, head, w)
	inc.next = append(inc.next, inc.first[head])
	inc.first[head] = i
	inc.stats.Inserted++
	nd := inc.dist[head].Arc(inc.weight[w])
	if !nd.Less(inc.dist[tail]) {
		return true // potential already satisfies the new arc
	}
	inc.stats.Repairs++
	for len(inc.cand) < len(inc.dist) {
		inc.cand = append(inc.cand, Pair{})
		inc.candGen = append(inc.candGen, 0)
		inc.doneGen = append(inc.doneGen, 0)
	}
	return inc.repair(head, tail, nd)
}

// repair restores d(y) <= d(x) + w for every stored arc y→x (x's chain)
// after inserting the arc to→from, whose bound lowers to's candidate to
// nd < d(to). It is a Dijkstra over reduced costs: for old arcs,
// w + d(x) − d(y) >= 0, so the improvement γ(y) = cand(y) − d(y) is
// non-decreasing along propagation paths and nodes finalize in γ order,
// each at most once. Reaching from with an improvement means the new arc
// would relax again — a negative cycle through it — and repair reports
// false.
func (inc *Incremental) repair(from, to int32, nd Pair) bool {
	inc.gen++
	gen := inc.gen
	inc.cand[to] = nd
	inc.candGen[to] = gen
	inc.heap = inc.heap[:0]
	inc.push(repairItem{key: nd.Sub(inc.dist[to]), node: to})

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
		if x == from {
			return false // the new arc relaxes again: negative cycle
		}
		inc.doneGen[x] = gen
		inc.dist[x] = inc.cand[x]
		dx := inc.dist[x]
		inc.stats.Finalized++
		for i := inc.first[x]; i >= 0; i = inc.next[i] {
			inc.stats.Scanned++
			y := inc.arcs.tail[i]
			if inc.doneGen[y] == gen {
				continue
			}
			c := dx.Arc(inc.weight[inc.arcs.code[i]])
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

// fallback extracts the witness cycle once the incremental potential
// proves infeasibility, and latches the verdict. It first stores the
// batch's remaining arcs without repair, so the store is the full
// constraint system of g, then solves it with the batch prober.
func (inc *Incremental) fallback(g *causality.Graph, rest []causality.Edge) (Verdict, error) {
	for _, e := range rest {
		if err := inc.arcs.addEdge(e); err != nil {
			return Verdict{}, err
		}
	}
	v, err := (&Prober{g: g, s: &inc.arcs}).verdict(inc.a, inc.b)
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

// Graph returns the execution graph built so far. It is the builder's
// live graph, safe to read concurrently as long as no further Step
// interleaves with those reads.
func (inc *Incremental) Graph() *causality.Graph { return inc.bld.Graph() }

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
