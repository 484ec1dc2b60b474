package clocksync

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/causality"
	"repro/internal/rat"
	"repro/internal/sim"
)

// cutSpread is one checked cut of the reference scan: its name in
// CheckConsistentCutSynchrony's error and its clock spread.
type cutSpread struct {
	name   string
	spread int
}

// referenceCuts builds every cut Theorem 2 is checked on the direct way —
// a left closure per node (Graph.CausalCone), then a real-time cut per
// distinct time in order of first occurrence (Graph.CutAtTime) — and
// returns, in that order, the consistent ones with their spreads.
func referenceCuts(g *causality.Graph) []cutSpread {
	t := g.Trace()
	correct := t.CorrectProcesses()
	spread := func(cut *causality.Cut) (int, bool) {
		lo, hi := -1, -1
		for _, p := range correct {
			f := cut.Frontier(p)
			if f < 0 {
				return 0, false
			}
			c, _ := clockOf(t.Events[f])
			if lo == -1 || c < lo {
				lo = c
			}
			hi = max(hi, c)
		}
		return hi - lo, true
	}
	var out []cutSpread
	for id := range causality.NodeID(g.NumNodes()) {
		if s, ok := spread(g.CausalCone(id)); ok {
			out = append(out, cutSpread{fmt.Sprintf("cone(%v)", g.Node(id)), s})
		}
	}
	seen := map[string]bool{}
	for id := range causality.NodeID(g.NumNodes()) {
		ts := g.Trace().Events[id].Time
		if key := ts.String(); !seen[key] {
			seen[key] = true
			if s, ok := spread(g.CutAtTime(ts)); ok {
				out = append(out, cutSpread{"time " + key, s})
			}
		}
	}
	return out
}

// TestCutSynchronyMatchesReference runs the one-pass Theorem 2 check
// against the cut-by-cut reference scan on Algorithm 1 executions with
// n ∈ {4, 7, 10}, 30 seeds each, and f = ⌊(n−1)/3⌋ processes crashing at
// seed-dependent steps, at every bound 0..5: the error strings (or their
// absence) must be identical, so the first violating cut in cone-then-time
// order is the same.
func TestCutSynchronyMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic reference scan over 90 executions")
	}
	cases, violating, timeCuts := 0, 0, 0
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		for seed := int64(1); seed <= 30; seed++ {
			faults := map[sim.ProcessID]sim.Fault{}
			for i := 0; i < f; i++ {
				faults[sim.ProcessID(n-1-i)] = sim.Crash(int(seed+int64(i)) % 9)
			}
			_, g := runSync(t, n, f, faults, 8, rat.New(3, 2), seed)
			ref := referenceCuts(g)
			for bound := int64(0); bound <= 5; bound++ {
				want := ""
				for _, c := range ref {
					if int64(c.spread) > bound {
						want = fmt.Sprintf("clocksync: cut %s has spread %d > %d", c.name, c.spread, bound)
						break
					}
				}
				for _, c := range ref {
					if strings.HasPrefix(c.name, "time ") && int64(c.spread) > bound {
						timeCuts++
						break
					}
				}
				got := ""
				if err := CheckConsistentCutSynchrony(g, bound); err != nil {
					got = err.Error()
				}
				if got != want {
					t.Fatalf("n=%d seed=%d bound=%d: error %q, reference %q", n, seed, bound, got, want)
				}
				cases++
				if want != "" {
					violating++
				}
			}
		}
	}
	t.Logf("%d cases, %d violating, %d with a violating real-time cut", cases, violating, timeCuts)
	if violating == 0 || violating == cases {
		t.Fatalf("degenerate sweep: %d of %d cases violating", violating, cases)
	}
}

// TestCutSynchronyRealTimeCuts pins the real-time sweep, which the
// executions above never reach first (a violating real-time cut there
// always comes after a violating cone). Two correct processes that only
// message themselves make every cone miss one of them, so the real-time
// cuts alone decide. Both processes step at times 0 and 1, so a real-time
// cut must take each group of simultaneous events whole: after p0's step
// at time 1 alone the spread would be 3, after the whole group it is 2.
func TestCutSynchronyRealTimeCuts(t *testing.T) {
	tr := sim.NewTraceBuilder(2).
		WakeAll(rat.Zero).
		MsgAt(0, 0, 0, 1, nil).
		MsgAt(1, 0, 1, 1, nil).
		MsgAt(0, 1, 0, 2, nil).
		MsgAt(1, 1, 1, 3, nil).
		MustBuild()
	clocks := [][]int{{0, 3, 3}, {0, 1, 0}} // per process, per event index
	for i, ev := range tr.Events {
		tr.Events[i].Note = Note{Clock: clocks[ev.Proc][ev.Index]}
	}
	g := causality.Build(tr, causality.Options{})
	ref := referenceCuts(g)
	for _, c := range ref {
		if !strings.HasPrefix(c.name, "time ") {
			t.Fatalf("reference checks %s, want real-time cuts only", c.name)
		}
	}
	for bound := int64(0); bound <= 3; bound++ {
		want := ""
		for _, c := range ref {
			if int64(c.spread) > bound {
				want = fmt.Sprintf("clocksync: cut %s has spread %d > %d", c.name, c.spread, bound)
				break
			}
		}
		got := ""
		if err := CheckConsistentCutSynchrony(g, bound); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("bound %d: error %q, reference %q", bound, got, want)
		}
	}
	if err := CheckConsistentCutSynchrony(g, 2); err == nil || !strings.Contains(err.Error(), "cut time 3 has spread 3 > 2") {
		t.Errorf("bound 2: error %v, want the cut at time 3", err)
	}
}
