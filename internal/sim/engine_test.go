package sim

import (
	"testing"

	"repro/internal/rat"
)

// engineTestConfigs is a set of deliberately heterogeneous configurations:
// different N (larger and smaller than each other, to exercise both growth
// and shrinking of the pooled arrays), different delay policies (uniform,
// growing, per-link, override), faults (crash, silent, Byzantine script),
// topology restrictions, and staggered start times.
func engineTestConfigs() map[string]Config {
	broadcast := func(steps int) func(ProcessID) Process {
		return func(ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if env.StepIndex() < steps {
					env.Broadcast(env.StepIndex())
				}
			})
		}
	}
	return map[string]Config{
		"uniform-n6": {
			N: 6, Spawn: broadcast(8),
			Delays: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
			Seed:   11, MaxEvents: 50000,
		},
		"growing-n3-faults": {
			N: 3, Spawn: broadcast(6),
			Faults: map[ProcessID]Fault{
				1: Crash(3),
				2: {CrashAfter: NeverCrash, Script: []ScriptedSend{
					{At: rat.New(5, 2), To: 0, Payload: "forged"},
				}},
			},
			Delays: GrowingDelay{Base: rat.One, Rate: rat.New(1, 10), Spread: rat.New(5, 4)},
			Seed:   7, MaxEvents: 20000,
		},
		"perlink-ring-n5": {
			N: 5, Spawn: broadcast(5),
			Delays: PerLinkDelay{
				Default: UniformDelay{Min: rat.One, Max: rat.FromInt(2)},
				Links: map[Link]DelayPolicy{
					{From: 0, To: 1}: ConstantDelay{D: rat.New(1, 2)},
				},
			},
			Topology: NewLinks(5, [][]ProcessID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}),
			Seed:     3, MaxEvents: 20000,
		},
		"override-stagger-n4": {
			N: 4, Spawn: broadcast(7),
			Delays: OverrideDelay{
				Base: UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
				Match: func(m Message) bool {
					v, ok := m.Payload.(int)
					return ok && v == 2
				},
				Override: UniformDelay{Min: rat.FromInt(4), Max: rat.FromInt(6)},
			},
			Seed: 42, MaxEvents: 20000,
		},
	}
}

// TestEngineMatchesRun pins the wrapper contract: for every configuration,
// an Engine produces a trace bit-identical to the one-shot sim.Run.
func TestEngineMatchesRun(t *testing.T) {
	e := NewEngine()
	for name, cfg := range engineTestConfigs() {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		pooled, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: Engine.Run: %v", name, err)
		}
		if fresh.Trace.Hash() != pooled.Trace.Hash() {
			t.Errorf("%s: engine trace differs from sim.Run trace", name)
		}
		if fresh.Truncated != pooled.Truncated {
			t.Errorf("%s: truncated %v vs %v", name, fresh.Truncated, pooled.Truncated)
		}
	}
}

// TestEngineReuseHermetic is the pooling-hermeticity property: running
// config A, then any interfering config B, then A again on the same Engine
// yields a trace identical to a fresh run of A. Every ordered pair of the
// heterogeneous test configs is exercised, so the pooled arrays shrink,
// grow, and change delay policy, fault set, and topology between the two
// A runs.
func TestEngineReuseHermetic(t *testing.T) {
	cfgs := engineTestConfigs()
	for nameA, cfgA := range cfgs {
		fresh, err := Run(cfgA)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", nameA, err)
		}
		want := fresh.Trace.Hash()
		for nameB, cfgB := range cfgs {
			e := NewEngine()
			first, err := e.Run(cfgA)
			if err != nil {
				t.Fatalf("%s then %s: first A: %v", nameA, nameB, err)
			}
			if _, err := e.Run(cfgB); err != nil {
				t.Fatalf("%s then %s: B: %v", nameA, nameB, err)
			}
			second, err := e.Run(cfgA)
			if err != nil {
				t.Fatalf("%s then %s: second A: %v", nameA, nameB, err)
			}
			if h := first.Trace.Hash(); h != want {
				t.Errorf("A=%s B=%s: first engine run of A differs from fresh run", nameA, nameB)
			}
			if h := second.Trace.Hash(); h != want {
				t.Errorf("A=%s B=%s: A after B differs from fresh run of A (state leak)", nameA, nameB)
			}
		}
	}
}

// TestEngineResultsDoNotAlias asserts that results of consecutive runs
// share no mutable state: the first run's trace must be unchanged (same
// hash) after the engine has executed a different configuration.
func TestEngineResultsDoNotAlias(t *testing.T) {
	cfgs := engineTestConfigs()
	e := NewEngine()
	a, err := e.Run(cfgs["uniform-n6"])
	if err != nil {
		t.Fatal(err)
	}
	before := a.Trace.Hash()
	if _, err := e.Run(cfgs["growing-n3-faults"]); err != nil {
		t.Fatal(err)
	}
	if a.Trace.Hash() != before {
		t.Error("first result's trace mutated by a later engine run")
	}
}

// TestEngineRecoversFromConfigError verifies an Engine stays usable after
// a run that never completed: a rejected configuration (including a delay
// policy that admits negative delays) or a process step that panics
// mid-run. The next run on the same Engine must match a fresh run.
func TestEngineRecoversFromConfigError(t *testing.T) {
	clean := engineTestConfigs()["uniform-n6"]
	panicky := clean
	panicky.Spawn = func(p ProcessID) Process {
		return ProcessFunc(func(env *Env, msg Message) {
			if p == 5 && env.StepIndex() == 1 {
				panic("boom")
			}
			env.Broadcast(env.StepIndex())
		})
	}
	negative := clean
	negative.Delays = UniformDelay{Min: rat.One, Max: rat.FromInt(-1)}
	fresh, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		cfg    Config
		panics any // the expected panic value; nil expects an error
	}{
		"config-error":   {cfg: Config{N: 0}},
		"negative-delay": {cfg: negative},
		"step-panic":     {cfg: panicky, panics: "boom"},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			func() {
				defer func() {
					if r := recover(); r != tc.panics {
						t.Errorf("panic = %v, want %v", r, tc.panics)
					}
				}()
				if _, err := e.Run(tc.cfg); err == nil {
					t.Error("bad run accepted")
				}
			}()
			got, err := e.Run(clean)
			if err != nil {
				t.Fatal(err)
			}
			if got.Trace.Hash() != fresh.Trace.Hash() {
				t.Error("engine run after the failed run differs from fresh run")
			}
		})
	}
}

// TestEngineDeliversInExactTimeOrder runs a full mesh whose link delays
// are 1 or 1 + 2^−60 — distinct receive times whose float64 keys are
// equal — and checks that the recorded events never go back in exact
// time. Each broadcast queues a later time before an earlier one with the
// same key, so a queue that settled key ties by push order alone would
// deliver them backwards.
func TestEngineDeliversInExactTimeOrder(t *testing.T) {
	res, err := Run(Config{
		N: 6,
		Spawn: func(ProcessID) Process {
			return ProcessFunc(func(env *Env, msg Message) {
				if env.StepIndex() < 8 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays: OverrideDelay{
			Base:     ConstantDelay{D: rat.One},
			Match:    func(m Message) bool { return (m.From+m.To)%2 != 0 },
			Override: ConstantDelay{D: rat.New(1<<60+1, 1<<60)},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := res.Trace.Events
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Less(evs[i-1].Time) {
			t.Fatalf("event %d at %v delivered after event %d at %v", i, evs[i].Time, i-1, evs[i-1].Time)
		}
	}
}
