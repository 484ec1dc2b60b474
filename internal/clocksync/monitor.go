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

// CheckConsistentCutSynchrony verifies Theorem 2 on a family of consistent
// cuts: the causal cone of every node (the finest consistent cuts
// available) plus every real-time cut. For each cut S containing an event
// of every correct process, |Cp(S) − Cq(S)| <= bound.
//
// The cuts are checked serially — cones in node order, then real-time cuts
// in order of first occurrence — and the reported error names the first
// violating cut in that order. The check already runs on a fleet worker
// (runner.Run), so it does not fan out itself.
func CheckConsistentCutSynchrony(g *causality.Graph, bound int64) error {
	t := g.Trace()
	correct := t.CorrectProcesses()

	// spread is max − min of the correct processes' frontier clocks; ok
	// is false when the cut misses a correct process (not a consistent cut
	// per Definition 5, so it is skipped).
	spread := func(cut *causality.Cut) (s int, ok bool) {
		min, max := -1, -1
		for _, p := range correct {
			f := cut.Frontier(p)
			if f < 0 {
				return 0, false
			}
			c, ok := clockOf(t.Events[g.Node(f).TracePos])
			if !ok {
				// Frontier is an unprocessed reception at a correct
				// process; cannot happen, but treat as clock 0.
				c = 0
			}
			if min == -1 || c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max - min, min >= 0
	}

	for id := range causality.NodeID(g.NumNodes()) {
		if s, ok := spread(g.CausalCone(id)); ok && int64(s) > bound {
			return fmt.Errorf("clocksync: cut cone(%v) has spread %d > %d", g.Node(id), s, bound)
		}
	}
	seen := map[string]bool{}
	for id := range causality.NodeID(g.NumNodes()) {
		ts := g.Node(id).Time
		key := ts.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if s, ok := spread(g.CutAtTime(ts)); ok && int64(s) > bound {
			return fmt.Errorf("clocksync: cut time %s has spread %d > %d", key, s, bound)
		}
	}
	return nil
}

// CheckBoundedProgress verifies Theorem 4: whenever a correct process
// performs rho distinguished events (clock increment + broadcast) within a
// consistent cut interval, every correct process performs at least one
// distinguished event in that interval.
func CheckBoundedProgress(g *causality.Graph, rho int64) error {
	t := g.Trace()
	correct := t.CorrectProcesses()

	// Distinguished nodes per correct process, in local order.
	dist := make(map[sim.ProcessID][]causality.NodeID)
	for _, p := range correct {
		for _, id := range g.NodesOf(p) {
			n, ok := t.Events[g.Node(id).TracePos].Note.(Note)
			if ok && n.Advanced && n.Broadcast {
				dist[p] = append(dist[p], id)
			}
		}
	}

	for _, p := range correct {
		ds := dist[p]
		for i := 0; int64(i)+rho < int64(len(ds)); i += int(rho) {
			phi, phiPrime := ds[i], ds[i+int(rho)]
			inner := g.Interval(phi, phiPrime) // contains ds[i+1..i+rho]: rho events
			for _, q := range correct {
				found := false
				for _, e := range dist[q] {
					if inner.Contains(e) {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf(
						"clocksync: p%d performed %d distinguished events in [⟨%v⟩,⟨%v⟩] but p%d performed none",
						p, rho, g.Node(phi), g.Node(phiPrime), q)
				}
			}
		}
	}
	return nil
}
