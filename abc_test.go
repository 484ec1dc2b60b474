package abc

import (
	"testing"
)

// The façade tests exercise the public API end to end, the way a
// downstream user would: build a model, run an algorithm, verify the
// trace, inspect certificates.

func TestFacadeQuickstart(t *testing.T) {
	model := MustModel(NewRat(2, 1))
	faults := ByzantineClockAdversaries(4, 1, 42)

	res, g, verdict, err := model.RunVerified(Config{
		N:         4,
		Spawn:     ClockSyncSpawner(4, 1),
		Faults:    faults,
		Delays:    UniformDelay{Min: RatInt(1), Max: NewRat(3, 2)},
		Seed:      7,
		Until:     ClocksReached(15, faults),
		MaxEvents: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Admissible {
		t.Fatalf("not admissible: %v", verdict.Witness)
	}
	if err := verdict.Assignment.Validate(model.Xi()); err != nil {
		t.Fatal(err)
	}
	x := model.PrecisionBound()
	if err := CheckRealTimePrecision(res.Trace, x); err != nil {
		t.Error(err)
	}
	if err := CheckCutSynchrony(g, x); err != nil {
		t.Error(err)
	}
}

func TestFacadeCheckAndRatio(t *testing.T) {
	// Hand-build Fig. 1 through the public TraceBuilder.
	b := NewTraceBuilder(9)
	b.WakeAll(RatInt(0))
	b.MsgAt(0, 0, 5, 1, "m1")
	b.MsgAt(5, 1, 6, 2, "m2")
	b.MsgAt(6, 1, 7, 2, "m3")
	b.MsgAt(7, 1, 8, 3, "m4")
	b.MsgAt(8, 1, 1, 4, "m5")
	b.MsgAt(0, 0, 2, 3, "m6")
	b.MsgAt(2, 1, 3, 6, "m7")
	b.MsgAt(3, 1, 4, 8, "m8")
	b.MsgAt(4, 1, 1, 10, "m9")
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(tr)

	v, err := Check(g, RatInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Admissible {
		t.Error("Fig.1 not admissible at Ξ=2 via façade")
	}
	ratio, found, err := MaxRelevantRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !found || !ratio.Equal(NewRat(5, 4)) {
		t.Errorf("critical ratio = %v found=%v, want 5/4", ratio, found)
	}
}

func TestFacadeConsensus(t *testing.T) {
	model := MustModel(NewRat(2, 1))
	n, f := 4, 1
	inputs := []int{1, 0, 1, 1}
	res, err := Simulate(Config{
		N: n,
		Spawn: LockStepSpawner(model, n, f, func(p ProcessID) App {
			return NewEIG(n, f, inputs[p])
		}),
		Delays:    UniformDelay{Min: RatInt(1), Max: NewRat(3, 2)},
		Seed:      1,
		Until:     RoundsReached(EIGRounds(f), nil),
		MaxEvents: 300000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLockStep(res.Procs, nil); err != nil {
		t.Fatal(err)
	}
	deciders := make([]Decider, n)
	init := map[ProcessID]int{}
	for i, v := range inputs {
		init[ProcessID(i)] = v
	}
	for id := range res.Procs {
		deciders[id] = res.Procs[id].(*LockStep).App().(Decider)
	}
	if err := (ConsensusSpec{Initial: init}).Check(deciders); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeVLSI(t *testing.T) {
	chip, err := NewChip(4, RatInt(1), NewRat(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunClockGeneration(chip, RatInt(2), 1, 6, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Admissible || !rep.PrecisionOK {
		t.Errorf("chip run: %+v", rep)
	}
}
