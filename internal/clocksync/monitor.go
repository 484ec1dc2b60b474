package clocksync

import (
	"fmt"

	"repro/internal/causality"
	"repro/internal/sim"
)

// Monitors turn the theorems of Section 3 into trace-level checks. They
// observe only the Note annotations and message structure of a finished
// trace — never the algorithm's internals — so they validate exactly what
// the theorems claim.

// clockOf returns the clock value recorded at a processed event, or
// (0, false) for unprocessed events or foreign notes.
func clockOf(ev sim.Event) (int, bool) {
	n, ok := ev.Note.(Note)
	if !ok {
		return 0, false
	}
	return n.Clock, true
}

// CheckProgress verifies Theorem 1's conclusion on a finite prefix: every
// correct process's clock reached at least min by the end of the trace.
func CheckProgress(t *sim.Trace, min int) error {
	final := make(map[sim.ProcessID]int)
	for _, ev := range t.Events {
		if c, ok := clockOf(ev); ok {
			final[ev.Proc] = c
		}
	}
	for _, p := range t.CorrectProcesses() {
		if final[p] < min {
			return fmt.Errorf("clocksync: process %d reached clock %d < %d", p, final[p], min)
		}
	}
	return nil
}

// CheckMonotone verifies that correct clocks never decrease — immediate
// from the code of Algorithm 1, and a prerequisite for frontier clock
// values being well defined.
func CheckMonotone(t *sim.Trace) error {
	last := make(map[sim.ProcessID]int)
	for _, ev := range t.Events {
		c, ok := clockOf(ev)
		if !ok {
			continue
		}
		if prev, seen := last[ev.Proc]; seen && c < prev {
			return fmt.Errorf("clocksync: clock of %d decreased from %d to %d", ev.Proc, prev, c)
		}
		last[ev.Proc] = c
	}
	return nil
}

// CheckRealTimePrecision verifies Theorem 3: at every real time t,
// |Cp(t) − Cq(t)| <= bound for all correct p, q. Clocks are 0 before the
// first event (Algorithm 1 initializes k to 0).
func CheckRealTimePrecision(t *sim.Trace, bound int64) error {
	clocks := make([]int, t.N)
	correct := make([]bool, t.N)
	for _, p := range t.CorrectProcesses() {
		correct[p] = true
	}
	for i := 0; i < len(t.Events); {
		// Apply the whole group of simultaneous events, then snapshot.
		j := i
		for j < len(t.Events) && t.Events[j].Time.Equal(t.Events[i].Time) {
			ev := t.Events[j]
			if c, ok := clockOf(ev); ok {
				clocks[ev.Proc] = c
			}
			j++
		}
		min, max := -1, -1
		for p := 0; p < t.N; p++ {
			if !correct[p] {
				continue
			}
			if min == -1 || clocks[p] < min {
				min = clocks[p]
			}
			if clocks[p] > max {
				max = clocks[p]
			}
		}
		if min >= 0 && int64(max-min) > bound {
			return fmt.Errorf("clocksync: precision %d exceeds %d at time %v", max-min, bound, t.Events[i].Time)
		}
		i = j
	}
	return nil
}

// CheckCausalCone verifies Lemma 4 (with the integerized bound X): whenever
// a correct process p's clock reaches c at an event, p has already received
// (tick ℓ) from every correct process for every ℓ <= c − X.
func CheckCausalCone(t *sim.Trace, x int64) error {
	correct := t.CorrectProcesses()
	isCorrect := make([]bool, t.N)
	for _, p := range correct {
		isCorrect[p] = true
	}
	// maxTick[p][q] is the highest tick p has received from q so far; -1
	// when none. Ticks are broadcast cumulatively (each value once, in
	// order), so "received (tick ℓ) for all ℓ <= k" is "maxTick >= k".
	maxTick := make([][]int, t.N)
	for p := range maxTick {
		maxTick[p] = make([]int, t.N)
		for q := range maxTick[p] {
			maxTick[p][q] = -1
		}
	}
	for _, ev := range t.Events {
		m := t.Msgs[ev.Trigger]
		if tick, ok := m.Payload.(Tick); ok && m.From >= 0 {
			if tick.K > maxTick[ev.Proc][m.From] {
				maxTick[ev.Proc][m.From] = tick.K
			}
		}
		if !isCorrect[ev.Proc] {
			continue
		}
		c, ok := clockOf(ev)
		if !ok {
			continue
		}
		k := int64(c) - x
		if k < 0 {
			continue
		}
		for _, q := range correct {
			if int64(maxTick[ev.Proc][q]) < k {
				return fmt.Errorf(
					"clocksync: p%d reached clock %d at event %d but has only tick %d from correct p%d (need >= %d)",
					ev.Proc, c, ev.Index, maxTick[ev.Proc][q], q, k)
			}
		}
	}
	return nil
}

// frontiers computes, in one forward pass over the nodes of g, every
// causal cone's frontier row: rows[id*c+i] is the last node of the i-th
// correct process in ⟨id⟩ (the node's causal past, inclusive), or -1 when
// the cone has no event of that process; col maps a process to its column
// and is -1 for faulty ones. Node IDs are trace positions, so every edge
// runs forward in node order (checked), and a node's row is the
// column-wise maximum of its predecessors' rows (Graph.Preds: the local
// one first, then the message sender) plus the node itself in its
// process's column: O((V+E)·c) in all, where a left closure per node
// costs O(V·(V+E)). Local edges chain each process's events, so a cone
// holds exactly the events of process q up to its frontier node. On an
// edge against node order the rows end before the edge's target node.
func frontiers(g *causality.Graph, col []int, c int) ([]causality.NodeID, error) {
	v := g.NumNodes()
	preds := g.Preds()
	rows := make([]causality.NodeID, v*c)
	for id := range causality.NodeID(v) {
		row := rows[int(id)*c : int(id+1)*c]
		for i := range row {
			row[i] = -1
		}
		for _, from := range [2]causality.NodeID{preds[id].Local, preds[id].Msg} {
			if from < 0 {
				continue
			}
			if from >= id {
				return rows[:int(id)*c], fmt.Errorf("clocksync: edge %v -> %v runs against trace order",
					g.Node(from), g.Node(id))
			}
			for i, f := range rows[int(from)*c : int(from+1)*c] {
				row[i] = max(row[i], f)
			}
		}
		if i := col[g.Node(id).Proc]; i >= 0 {
			row[i] = id
		}
	}
	return rows, nil
}

// cones holds the frontier rows of every causal cone of one graph
// (frontiers), computed once for both the Theorem 2 and Theorem 4 checks.
// A row has a column per correct process, in CorrectProcesses order; col
// maps a process to its column, -1 when faulty.
type cones struct {
	g       *causality.Graph
	correct []sim.ProcessID
	col     []int
	rows    []causality.NodeID
	err     error // an edge against trace order: rows end before its target
}

func newCones(g *causality.Graph) cones {
	k := cones{g: g, correct: g.Trace().CorrectProcesses(), col: make([]int, g.Trace().N)}
	for p := range k.col {
		k.col[p] = -1
	}
	for i, p := range k.correct {
		k.col[p] = i
	}
	k.rows, k.err = frontiers(g, k.col, len(k.correct))
	return k
}

// CheckCutsAndProgress runs CheckConsistentCutSynchrony(g, bound) and
// CheckBoundedProgress(g, rho) on one computation of the graph's frontier
// rows and returns their errors, unchanged, in that order.
func CheckCutsAndProgress(g *causality.Graph, bound, rho int64) (cuts, progress error) {
	k := newCones(g)
	return k.cutSynchrony(bound), k.boundedProgress(rho)
}

// CheckConsistentCutSynchrony verifies Theorem 2 on a family of consistent
// cuts: the causal cone of every node (the finest consistent cuts
// available) plus every real-time cut. For each cut S containing an event
// of every correct process, |Cp(S) − Cq(S)| <= bound.
//
// The cuts are checked in order — cones in node order, then real-time cuts
// in time order — and the reported error names the first violating cut in
// that order. No cut is built; only frontiers are, one row of node IDs per
// cut with a column per correct process, the cones' rows in one pass
// (frontiers). Trace order is also time order (checked), so the real-time
// cuts follow from one more sweep that keeps each process's latest node.
func CheckConsistentCutSynchrony(g *causality.Graph, bound int64) error {
	return newCones(g).cutSynchrony(bound)
}

func (k cones) cutSynchrony(bound int64) error {
	g, t, col, rows := k.g, k.g.Trace(), k.col, k.rows
	c, v := len(k.correct), g.NumNodes()
	node := func(id int) causality.Node { return g.Node(causality.NodeID(id)) }
	// clock[id] is the clock after node id; 0 for an unprocessed reception,
	// which cannot be a correct process's frontier anyway.
	clock := make([]int, v)
	for id := range v {
		clock[id], _ = clockOf(t.Events[id])
	}
	// spread is max − min of the frontier clocks of a row; ok is false when
	// the cut misses a correct process (not a consistent cut per
	// Definition 5, so it is skipped).
	spread := func(row []causality.NodeID) (s int, ok bool) {
		min, max := -1, -1
		for _, f := range row {
			if f < 0 {
				return 0, false
			}
			c := clock[f]
			if min == -1 || c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max - min, min >= 0
	}

	for id := 0; id*c < len(rows); id++ {
		if s, ok := spread(rows[id*c : (id+1)*c]); ok && int64(s) > bound {
			return fmt.Errorf("clocksync: cut cone(%v) has spread %d > %d", node(id), s, bound)
		}
	}
	if k.err != nil {
		return k.err
	}

	// The real-time sweep reads each node's time off its trace event.
	at := func(id int) sim.Time { return t.Events[id].Time }
	last := make([]causality.NodeID, c) // the latest node of each correct process so far
	for i := range last {
		last[i] = -1
	}
	for id := 0; id < v; {
		ts := at(id)
		for ; id < v && at(id).Equal(ts); id++ {
			if i := col[node(id).Proc]; i >= 0 {
				last[i] = causality.NodeID(id)
			}
		}
		if id < v && at(id).Less(ts) {
			return fmt.Errorf("clocksync: node %v at time %v follows time %v", node(id), at(id), ts)
		}
		if s, ok := spread(last); ok && int64(s) > bound {
			return fmt.Errorf("clocksync: cut time %v has spread %d > %d", ts, s, bound)
		}
	}
	return nil
}

// CheckBoundedProgress verifies Theorem 4: whenever a correct process
// performs rho distinguished events (clock increment + broadcast) within a
// consistent cut interval, every correct process performs at least one
// distinguished event in that interval.
//
// The intervals checked are [⟨φ⟩, ⟨ψ⟩] = ⟨ψ⟩ \ ⟨φ⟩ (Definition 6) for each
// correct p and each pair φ, ψ of p's distinguished events rho apart,
// stepping by rho. Process q's events in the interval are its nodes after
// its frontier in ⟨φ⟩ up to its frontier in ⟨ψ⟩ (frontiers), so a running
// count of q's distinguished events answers each interval in O(1), and
// the check costs O((V+E)·c) for c correct processes where two left
// closures per interval would cost O(V+E) each. Like
// CheckConsistentCutSynchrony, it rejects a graph with an edge against
// trace order, which no engine trace has.
func CheckBoundedProgress(g *causality.Graph, rho int64) error {
	return newCones(g).boundedProgress(rho)
}

func (k cones) boundedProgress(rho int64) error {
	if rho < 1 {
		return fmt.Errorf("clocksync: bounded progress needs rho >= 1, got %d", rho)
	}
	if k.err != nil {
		return k.err
	}
	g, t, correct, rows := k.g, k.g.Trace(), k.correct, k.rows
	c := len(correct)
	// done[id] counts the distinguished events of id's process up to and
	// including id; dist lists each correct process's distinguished nodes.
	done := make([]int32, g.NumNodes())
	dist := make([][]causality.NodeID, c)
	for i, p := range correct {
		for _, id := range g.NodesOf(p) {
			if n, ok := t.Events[id].Note.(Note); ok && n.Advanced && n.Broadcast {
				dist[i] = append(dist[i], id)
			}
			done[id] = int32(len(dist[i]))
		}
	}
	count := func(id causality.NodeID, i int) int32 {
		if f := rows[int(id)*c+i]; f >= 0 {
			return done[f]
		}
		return 0
	}

	for i, p := range correct {
		ds := dist[i]
		for k := 0; int64(len(ds)-k) > rho; k += int(rho) {
			phi, psi := ds[k], ds[k+int(rho)]
			for j, q := range correct {
				if count(psi, j) == count(phi, j) {
					return fmt.Errorf(
						"clocksync: p%d performed %d distinguished events in [⟨%v⟩,⟨%v⟩] but p%d performed none",
						p, rho, g.Node(phi), g.Node(psi), q)
				}
			}
		}
	}
	return nil
}
