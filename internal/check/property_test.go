package check

import (
	"testing"
	"testing/quick"

	"repro/internal/causality"
	"repro/internal/rat"
	"repro/internal/sim"
)

func randomTrace(seed int64) *sim.Trace { return randomBroadcastTrace(seed, 3, rat.FromInt(2)) }

// randomBroadcastTrace runs 3 or 4 processes that broadcast in each of
// their first steps steps under uniform delays in [1, maxDelay].
func randomBroadcastTrace(seed int64, steps int, maxDelay rat.Rat) *sim.Trace {
	if seed < 0 {
		seed = -seed
	}
	res, err := sim.Run(sim.Config{
		N: 3 + int(seed%2),
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < steps {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: sim.UniformDelay{Min: rat.One, Max: maxDelay},
		Seed:   seed,
	})
	if err != nil {
		panic(err)
	}
	return res.Trace
}

// Property (Theorem 9, strong form): retiming an admissible execution with
// its normalized assignment yields a causally equivalent trace — same
// critical ratio, still admissible, all message delays inside (1, Ξ).
func TestRetimeRoundTripProperty(t *testing.T) {
	xi := rat.FromInt(3)
	f := func(seed int64) bool {
		tr := randomTrace(seed)
		g := causality.Build(tr, causality.Options{})
		v, err := ABC(g, xi)
		if err != nil || !v.Admissible {
			// Ratio-2 scheduling is always admissible at Ξ=3 (Thm. 6);
			// treat an inadmissible run as a property failure.
			return false
		}
		retimed, err := v.Assignment.Retime()
		if err != nil {
			return false
		}
		g2 := causality.Build(retimed, causality.Options{})
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		r1, f1, err := MaxRelevantRatio(g)
		if err != nil {
			return false
		}
		r2, f2, err := MaxRelevantRatio(g2)
		if err != nil {
			return false
		}
		if f1 != f2 || (f1 && !r1.Equal(r2)) {
			return false
		}
		for _, m := range retimed.Msgs {
			if m.IsWakeup() {
				continue
			}
			d := m.RecvTime.Sub(m.SendTime)
			if !d.Greater(rat.One) || !d.Less(xi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the checker's verdict is monotone in Ξ — admissible at Ξ
// implies admissible at every larger Ξ'.
func TestAdmissibilityMonotoneProperty(t *testing.T) {
	xis := []rat.Rat{rat.New(5, 4), rat.New(3, 2), rat.FromInt(2), rat.FromInt(3), rat.FromInt(5)}
	f := func(seed int64) bool {
		tr := randomTrace(seed)
		g := causality.Build(tr, causality.Options{})
		prev := false
		for _, xi := range xis {
			v, err := ABC(g, xi)
			if err != nil {
				return false
			}
			if prev && !v.Admissible {
				return false // monotonicity violated
			}
			prev = v.Admissible
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the critical ratio is exactly the admissibility threshold —
// inadmissible at Ξ = ratio, admissible just above it.
func TestCriticalRatioThresholdProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTrace(seed)
		g := causality.Build(tr, causality.Options{})
		ratio, found, err := MaxRelevantRatio(g)
		if err != nil {
			return false
		}
		if !found {
			return true
		}
		if ratio.Greater(rat.One) {
			at, err := ABC(g, ratio)
			if err != nil || at.Admissible {
				return false // must violate exactly at the ratio
			}
		}
		above := ratio.Add(rat.New(1, 1000))
		v, err := ABC(g, above)
		return err == nil && v.Admissible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Restricting the synchrony condition to a subset of processes (the
// WTL-style weakening sketched in Sections 2 and 6) only removes
// constraints: the restricted graph's critical ratio never exceeds the
// full one.
func TestRestrictedConditionWeakensModel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := randomTrace(seed)
		full := causality.Build(tr, causality.Options{})
		restricted := causality.Build(tr, causality.Options{
			DropMessage: func(m sim.Message) bool {
				// Exempt everything not between processes 0 and 1.
				return m.From > 1 || m.To > 1
			},
		})
		rFull, foundFull, err := MaxRelevantRatio(full)
		if err != nil {
			t.Fatal(err)
		}
		rRestr, foundRestr, err := MaxRelevantRatio(restricted)
		if err != nil {
			t.Fatal(err)
		}
		if foundRestr && !foundFull {
			t.Fatalf("seed %d: restriction created constraints", seed)
		}
		if foundRestr && foundFull && rRestr.Greater(rFull) {
			t.Fatalf("seed %d: restricted ratio %v exceeds full %v", seed, rRestr, rFull)
		}
	}
}
