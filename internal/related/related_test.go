package related

import (
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Section 5.2's comparison: the MCM assumption is more demanding than the
// ABC condition. Fig. 1's execution is ABC(2)-admissible, but its delay
// spectrum (which includes a zero-delay message and a dense range) admits
// no nontrivial slow/fast split.
func TestABCAdmissibleButNotMCMClassifiable(t *testing.T) {
	// Build an ABC-admissible execution whose delays are dense in ratio
	// (no gap of factor > 2): delays 2, 3, 4.
	b := sim.NewTraceBuilder(2)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 2, "a") // delay 2
	b.MsgAt(1, 1, 0, 6, "b") // delay 4... ratio 2: not > 2
	b.MsgAt(0, 1, 1, 9, "c") // delay 3
	tr := b.MustBuild()
	g := causality.Build(tr, causality.Options{})
	v, err := check.ABC(g, rat.FromInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Fatal("dense-delay execution not ABC(3)-admissible")
	}
	split, delays := MCMClassifiable(tr)
	if split {
		t.Errorf("dense delay spectrum %v admits an MCM split", delays)
	}
}

func TestMCMClassifiableFindsGap(t *testing.T) {
	b := sim.NewTraceBuilder(2)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 1, "x")  // delay 1
	b.MsgAt(1, 1, 0, 11, "y") // delay 10 > 2
	tr := b.MustBuild()
	split, _ := MCMClassifiable(tr)
	if !split {
		t.Error("factor-10 gap not found")
	}
	// Empty trace: vacuously classifiable.
	b2 := sim.NewTraceBuilder(1)
	b2.WakeAll(rat.Zero)
	if ok, _ := MCMClassifiable(b2.MustBuild()); !ok {
		t.Error("empty trace not classifiable")
	}
	// Fig. 1 (zero-delay message): any split with the zero-delay message
	// fast requires slow > 0, which holds — verify behavior is computed,
	// not assumed.
	fig := scenario.BuildFig1()
	split, delays := MCMClassifiable(fig.Trace)
	_ = split
	if len(delays) != 9 {
		t.Errorf("Fig.1 has %d correct message delays, want 9", len(delays))
	}
}

func TestWinningSets(t *testing.T) {
	rounds := []QueryRound{
		{Querier: 0, Responders: []sim.ProcessID{1, 2, 3}},
		{Querier: 0, Responders: []sim.ProcessID{2, 1, 3}},
		{Querier: 0, Responders: []sim.ProcessID{1, 2, 4}},
	}
	// n=5, f=2: first 3 responders count.
	ws := WinningSets(5, 2, rounds)
	got := ws[0]
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("winning set = %v, want [1 2]", got)
	}
}

func TestMMRQueryRounds(t *testing.T) {
	// n−f = 3 of 4 responders count per round: the consistently slow
	// process 4 must drop out of the winning set.
	n, f := 5, 2
	res, err := sim.Run(sim.Config{
		N: n,
		Spawn: func(p sim.ProcessID) sim.Process {
			if p == 0 {
				return &MMRQuerier{N: n, F: f, MaxRounds: 5}
			}
			return MMRResponder{}
		},
		Delays: sim.PerLinkDelay{
			Default: sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
			Links: map[sim.Link]sim.DelayPolicy{
				{From: 4, To: 0}: sim.UniformDelay{Min: rat.FromInt(10), Max: rat.FromInt(12)},
			},
		},
		Seed:      2,
		MaxEvents: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Procs[0].(*MMRQuerier)
	if len(q.Rounds()) != 5 {
		t.Fatalf("completed %d rounds, want 5", len(q.Rounds()))
	}
	ws := WinningSets(n, f, q.Rounds())
	set := ws[0]
	if len(set) == 0 {
		t.Fatal("empty winning set — MMR property fails even in benign run")
	}
	for _, p := range set {
		if p == 4 {
			t.Error("consistently slow process in the winning set")
		}
	}
}

func TestMMRQuerierIgnoresStaleResponses(t *testing.T) {
	// Duplicate and stale responses must not complete rounds twice.
	n, f := 3, 1
	res, err := sim.Run(sim.Config{
		N: n,
		Spawn: func(p sim.ProcessID) sim.Process {
			if p == 0 {
				return &MMRQuerier{N: n, F: f, MaxRounds: 3}
			}
			return MMRResponder{}
		},
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.FromInt(4)},
		Seed:      3,
		MaxEvents: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Procs[0].(*MMRQuerier)
	if len(q.Rounds()) != 3 {
		t.Fatalf("completed %d rounds, want 3", len(q.Rounds()))
	}
	for _, r := range q.Rounds() {
		seen := map[sim.ProcessID]bool{}
		for _, p := range r.Responders {
			if seen[p] {
				t.Fatal("duplicate responder recorded")
			}
			seen[p] = true
		}
	}
}
