package check

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/causality"
	"repro/internal/cycles"
	"repro/internal/rat"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestXiValidation(t *testing.T) {
	fig := scenario.BuildFig1()
	for _, xi := range []rat.Rat{rat.One, rat.New(1, 2), rat.Zero, rat.FromInt(-2)} {
		if _, err := ABC(fig.Graph, xi); !errors.Is(err, ErrXiOutOfRange) {
			t.Errorf("ABC with Ξ=%v: err = %v, want ErrXiOutOfRange", xi, err)
		}
	}
}

// TestXiOverflowIsError pins that a Ξ whose numerator or denominator
// overflows int64 is an error from every checker entry point, not a panic
// in the constraint-weight conversion.
func TestXiOverflowIsError(t *testing.T) {
	fig := scenario.BuildFig1()
	for _, s := range []string{"99999999999999999999/3", "99999999999999999999/99999999999999999998"} {
		xi, err := rat.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ABC(fig.Graph, xi); err == nil {
			t.Errorf("ABC with Ξ=%s accepted", s)
		}
		if _, err := NewIncremental(fig.Trace, xi, causality.Options{}); err == nil {
			t.Errorf("NewIncremental with Ξ=%s accepted", s)
		}
		if _, err := NewWatcher(xi, causality.Options{}); err == nil {
			t.Errorf("NewWatcher with Ξ=%s accepted", s)
		}
	}
}

// TestSizeGuard pins the one overflow rule shared by the prober and
// Incremental: 4·(V+2)·a must fit in int64. A near-int64 Ξ such as
// 2^62/(2^62−1) trips it on any graph, as a clean error from both.
func TestSizeGuard(t *testing.T) {
	const v = 1000
	limit := int64(math.MaxInt64 / 4 / (v + 2))
	if err := sizeGuard(v, limit, limit-1); err != nil {
		t.Errorf("a=%d at the bound rejected: %v", limit, err)
	}
	if err := sizeGuard(v, limit+1, limit); err == nil {
		t.Errorf("a=%d past the bound accepted", limit+1)
	}
	fig := scenario.BuildFig1()
	xi := rat.New(1<<62, 1<<62-1)
	if _, err := ABC(fig.Graph, xi); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("ABC at Ξ=%v: err = %v, want the size guard", xi, err)
	}
	inc, err := NewIncremental(fig.Trace, xi, causality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Step(); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("Incremental at Ξ=%v: err = %v, want the size guard", xi, err)
	}
}

func TestFig1Admissibility(t *testing.T) {
	fig := scenario.BuildFig1()
	// Critical ratio is 5/4: admissible for Ξ > 5/4 only.
	tests := []struct {
		xi   rat.Rat
		want bool
	}{
		{rat.FromInt(2), true},
		{rat.New(13, 10), true},
		{rat.New(5, 4), false},
		{rat.New(6, 5), false},
		{rat.New(101, 100), false},
	}
	for _, tt := range tests {
		v, err := ABC(fig.Graph, tt.xi)
		if err != nil {
			t.Fatal(err)
		}
		if v.Admissible != tt.want {
			t.Errorf("Ξ=%v: admissible=%v, want %v", tt.xi, v.Admissible, tt.want)
		}
		if v.Admissible {
			if v.Assignment == nil {
				t.Fatalf("Ξ=%v: no assignment", tt.xi)
			}
			if err := v.Assignment.Validate(tt.xi); err != nil {
				t.Errorf("Ξ=%v: invalid assignment: %v", tt.xi, err)
			}
		} else {
			if v.Witness == nil {
				t.Fatalf("Ξ=%v: no witness", tt.xi)
			}
			if !v.WitnessClass.Relevant {
				t.Errorf("Ξ=%v: witness not relevant", tt.xi)
			}
			if v.WitnessClass.Ratio().Less(tt.xi) {
				t.Errorf("Ξ=%v: witness ratio %v below Ξ", tt.xi, v.WitnessClass.Ratio())
			}
		}
	}
}

func TestFig3Violation(t *testing.T) {
	fig := scenario.BuildFig3()
	v, err := ABC(fig.Graph, rat.FromInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.Admissible {
		t.Fatal("Fig.3 execution admissible at Ξ=2; the late reply must violate")
	}
	if got := v.WitnessClass.Ratio(); !got.GreaterEq(rat.FromInt(2)) {
		t.Errorf("witness ratio %v, want >= 2", got)
	}
	// Admissible at Ξ just above 2.
	v, err = ABC(fig.Graph, rat.New(21, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Error("Fig.3 execution must be admissible at Ξ=21/10")
	}
}

func TestFig4AdmissibleEverywhere(t *testing.T) {
	fig := scenario.BuildFig4()
	// The timely reply makes the cycle non-relevant; admissible for small Ξ.
	for _, xi := range []rat.Rat{rat.New(101, 100), rat.FromInt(2), rat.FromInt(10)} {
		v, err := ABC(fig.Graph, xi)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Admissible {
			t.Errorf("Fig.4 not admissible at Ξ=%v", xi)
		}
	}
}

func TestAssignmentProperties(t *testing.T) {
	fig := scenario.BuildFig1()
	xi := rat.FromInt(2)
	v, err := ABC(fig.Graph, xi)
	if err != nil {
		t.Fatal(err)
	}
	a := v.Assignment
	if err := a.Validate(xi); err != nil {
		t.Fatal(err)
	}
	// Delay ratio below Ξ (Θ-Model admissibility, Theorem 9's bridge).
	min, max, ok := a.MinMaxMessageDelay()
	if !ok {
		t.Fatal("no message delays")
	}
	if !max.Div(min).Less(xi) {
		t.Errorf("delay ratio %v not below Ξ=%v", max.Div(min), xi)
	}
	// Times respect causal order along every edge.
	for i := range fig.Graph.Edges() {
		if a.Delay(causality.EdgeID(i)).Sign() <= 0 {
			t.Errorf("edge %d has non-positive assigned delay", i)
		}
	}
}

func TestConstrained(t *testing.T) {
	fig := scenario.BuildFig1()
	has, err := Constrained(fig.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !has {
		t.Error("Fig.1 graph must be constrained (ratio 5/4 > 1)")
	}

	// An isolated chain has no cycles at all.
	b := sim.NewTraceBuilder(3)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 1, nil)
	b.MsgAt(1, 1, 2, 2, nil)
	g := causality.Build(b.MustBuild(), causality.Options{})
	has, err = Constrained(g)
	if err != nil {
		t.Fatal(err)
	}
	if has {
		t.Error("isolated chain reported constrained")
	}
	// A message parallel to a local chain forms only a non-relevant cycle.
	b2 := sim.NewTraceBuilder(2)
	b2.WakeAll(rat.Zero)
	b2.MsgAt(0, 0, 1, 1, nil)
	b2.MsgAt(0, 0, 1, 2, nil)
	g2 := causality.Build(b2.MustBuild(), causality.Options{})
	has, err = Constrained(g2)
	if err != nil {
		t.Fatal(err)
	}
	if has {
		t.Error("two one-way messages reported constrained")
	}
}

func TestMaxRelevantRatioFigures(t *testing.T) {
	tests := []struct {
		name  string
		g     *causality.Graph
		want  rat.Rat
		found bool
	}{
		{"fig1", scenario.BuildFig1().Graph, rat.New(5, 4), true},
		{"fig3", scenario.BuildFig3().Graph, rat.FromInt(2), true},
	}
	for _, tt := range tests {
		got, found, err := MaxRelevantRatio(tt.g)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if found != tt.found || !got.Equal(tt.want) {
			t.Errorf("%s: ratio=%v found=%v, want %v, %v", tt.name, got, found, tt.want, tt.found)
		}
	}
}

func TestMaxRelevantRatioNoCycles(t *testing.T) {
	b := sim.NewTraceBuilder(2)
	b.WakeAll(rat.Zero)
	b.MsgAt(0, 0, 1, 1, nil)
	g := causality.Build(b.MustBuild(), causality.Options{})
	_, found, err := MaxRelevantRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("found a ratio in a cycle-free graph")
	}
}

func TestExhaustiveAgreesOnFigures(t *testing.T) {
	for _, g := range []*causality.Graph{
		scenario.BuildFig1().Graph,
		scenario.BuildFig3().Graph,
		scenario.BuildFig4().Graph,
	} {
		for _, xi := range []rat.Rat{rat.New(6, 5), rat.New(5, 4), rat.FromInt(2), rat.FromInt(3)} {
			fast, err := ABC(g, xi)
			if err != nil {
				t.Fatal(err)
			}
			slow, complete, err := Exhaustive(g, xi, 100000)
			if err != nil {
				t.Fatal(err)
			}
			if !complete {
				t.Fatal("exhaustive truncated on figure graph")
			}
			if fast.Admissible != slow.Admissible {
				t.Errorf("Ξ=%v: BF says %v, exhaustive says %v", xi, fast.Admissible, slow.Admissible)
			}
		}
	}
}

// randomGraph produces a small random execution trace via the simulator.
func randomGraph(t *testing.T, seed int64, n, steps int, min, max rat.Rat) *causality.Graph {
	t.Helper()
	res, err := sim.Run(sim.Config{
		N: n,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < steps {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: sim.UniformDelay{Min: min, Max: max},
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return causality.Build(res.Trace, causality.Options{})
}

// Cross-validation: on random small graphs, the Bellman–Ford checker, the
// exhaustive oracle, and the exact ratio search must all agree.
func TestCheckerCrossValidation(t *testing.T) {
	xis := []rat.Rat{rat.New(3, 2), rat.FromInt(2), rat.FromInt(3), rat.New(7, 3)}
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(t, seed, 3, 3, rat.One, rat.FromInt(2))
		maxR, found, err := MaxRelevantRatio(g)
		if err != nil {
			t.Fatal(err)
		}
		exR, exFound, complete := MaxRelevantRatioExhaustive(g, 200000)
		if !complete {
			continue // graph too dense to enumerate; skip oracle comparison
		}
		// MaxRelevantRatio reports only constraining ratios (> 1); the
		// exhaustive oracle also sees ratio-1 relevant cycles.
		wantFound := exFound && exR.Greater(rat.One)
		if found != wantFound {
			t.Fatalf("seed %d: ratio found=%v, exhaustive: found=%v max=%v", seed, found, exFound, exR)
		}
		if found && !maxR.Equal(exR) {
			t.Fatalf("seed %d: MaxRelevantRatio=%v, exhaustive=%v", seed, maxR, exR)
		}
		for _, xi := range xis {
			fast, err := ABC(g, xi)
			if err != nil {
				t.Fatal(err)
			}
			slow, _, err := Exhaustive(g, xi, 200000)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Admissible != slow.Admissible {
				t.Fatalf("seed %d Ξ=%v: BF=%v exhaustive=%v", seed, xi, fast.Admissible, slow.Admissible)
			}
			if fast.Admissible {
				if err := fast.Assignment.Validate(xi); err != nil {
					t.Fatalf("seed %d Ξ=%v: %v", seed, xi, err)
				}
			} else if !cycles.Satisfies(*fast.Witness, xi) {
				// Witness must itself violate the condition.
				continue
			} else {
				t.Fatalf("seed %d Ξ=%v: witness does not violate", seed, xi)
			}
		}
	}
}

// Executions scheduled with delay ratio below Ξ are always admissible
// (Theorem 6 direction: Θ-admissible implies ABC-admissible).
func TestThetaScheduledAlwaysAdmissible(t *testing.T) {
	xi := rat.FromInt(2)
	for seed := int64(0); seed < 10; seed++ {
		// Delays in [1, 1.9]: ratio <= 1.9 < 2.
		g := randomGraph(t, seed, 4, 4, rat.One, rat.New(19, 10))
		v, err := ABC(g, xi)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Admissible {
			w := v.Witness
			t.Fatalf("seed %d: Θ(1.9)-scheduled execution not ABC(2)-admissible; witness %v", seed, w)
		}
	}
}

func TestCheckerOnNonDAG(t *testing.T) {
	// Corrupted graphs must be rejected, not mis-checked. Build a legal
	// trace, then a graph, and check the DAG guard via the public API only
	// (executions from the simulator are always DAGs, so this exercises
	// the defensive path using a hand-made cyclic digraph is not possible
	// through the public API; the guard is still worth asserting on a
	// valid graph returning no error).
	fig := scenario.BuildFig1()
	if _, err := ABC(fig.Graph, rat.FromInt(2)); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
}

func TestExhaustiveXiValidation(t *testing.T) {
	fig := scenario.BuildFig1()
	if _, _, err := Exhaustive(fig.Graph, rat.One, 10); !errors.Is(err, ErrXiOutOfRange) {
		t.Errorf("Exhaustive accepted Ξ=1: %v", err)
	}
}
