package clocksync

import (
	"fmt"
	"testing"

	"repro/internal/causality"
	"repro/internal/rat"
	"repro/internal/sim"
)

// intervalBoundedProgress is the direct reading of Theorem 4 that
// CheckBoundedProgress replaced: it builds each consistent cut interval
// [⟨φ⟩, ⟨ψ⟩] with Graph.Interval (two left closures, Definition 6) and
// scans every correct process's distinguished events for a member. It
// checks the same intervals in the same order and words its error the
// same way, at O(V+E) per interval.
func intervalBoundedProgress(g *causality.Graph, rho int64) error {
	t := g.Trace()
	correct := t.CorrectProcesses()
	dist := make(map[sim.ProcessID][]causality.NodeID)
	for _, p := range correct {
		for _, id := range g.NodesOf(p) {
			if n, ok := t.Events[id].Note.(Note); ok && n.Advanced && n.Broadcast {
				dist[p] = append(dist[p], id)
			}
		}
	}
	for _, p := range correct {
		ds := dist[p]
		for i := 0; int64(i)+rho < int64(len(ds)); i += int(rho) {
			phi, psi := ds[i], ds[i+int(rho)]
			inner := g.Interval(phi, psi)
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
						p, rho, g.Node(phi), g.Node(psi), q)
				}
			}
		}
	}
	return nil
}

// TestBoundedProgressMatchesIntervals runs the frontier-count Theorem 4
// check against the interval-by-interval reference on Algorithm 1
// executions with n ∈ {4, 7, 10}, 20 seeds each, f = ⌊(n−1)/3⌋ processes
// crashing at seed-dependent steps or running the Byzantine adversaries,
// at every ρ in 1..5: the error strings (or their absence) must be
// identical, so the first violating interval is the same. Small ρ
// violates the theorem's premise, so the sweep has violating cases.
func TestBoundedProgressMatchesIntervals(t *testing.T) {
	cases, violating := 0, 0
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		for seed := int64(1); seed <= 20; seed++ {
			crash := map[sim.ProcessID]sim.Fault{}
			for i := 0; i < f; i++ {
				crash[sim.ProcessID(n-1-i)] = sim.Crash(int(seed+int64(i)) % 9)
			}
			for _, fc := range []struct {
				name   string
				faults map[sim.ProcessID]sim.Fault
			}{{"crash", crash}, {"byz", Adversaries(n, f, uint64(seed))}} {
				_, g := runSync(t, n, f, fc.faults, 8, rat.New(3, 2), seed)
				for rho := int64(1); rho <= 5; rho++ {
					want, got := "", ""
					if err := intervalBoundedProgress(g, rho); err != nil {
						want = err.Error()
					}
					if err := CheckBoundedProgress(g, rho); err != nil {
						got = err.Error()
					}
					if got != want {
						t.Fatalf("n=%d seed=%d %s rho=%d: error %q, reference %q", n, seed, fc.name, rho, got, want)
					}
					cases++
					if want != "" {
						violating++
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d violating", cases, violating)
	if violating == 0 || violating == cases {
		t.Fatalf("degenerate sweep: %d of %d cases violating", violating, cases)
	}
}

// TestBoundedProgressRejectsNonPositiveRho pins the error for ρ < 1, which
// no model yields (ϱ = 2X + 1 >= 3) and on which the interval scan never
// advanced.
func TestBoundedProgressRejectsNonPositiveRho(t *testing.T) {
	_, g := runSync(t, 4, 1, nil, 3, rat.New(3, 2), 1)
	for _, rho := range []int64{0, -1} {
		if err := CheckBoundedProgress(g, rho); err == nil {
			t.Errorf("rho=%d accepted", rho)
		}
	}
}
