package runner

import (
	"context"
	"testing"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/sim"
)

func watchConfig(seed int64) *sim.Config {
	// Odd seeds draw from a tight delay interval (admissible at Ξ=3/2 in
	// practice), even seeds from a wide one (usually violating), so a
	// sweep exercises both watch outcomes.
	delays := sim.UniformDelay{Min: rat.One, Max: rat.FromInt(3)}
	if seed%2 == 1 {
		delays = sim.UniformDelay{Min: rat.One, Max: rat.New(17, 16)}
	}
	return &sim.Config{
		N: 3,
		Spawn: func(p sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < 5 {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays:    delays,
		Seed:      seed,
		MaxEvents: 60,
	}
}

// TestWatchJobs streams incremental verdicts through the fleet and
// cross-checks every job against a batch check of the full (unwatched)
// run: watch inadmissible => batch inadmissible, watch admissible =>
// identical trace and verdict.
func TestWatchJobs(t *testing.T) {
	xi := rat.New(3, 2)
	const n = 24
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: "watch", Cfg: watchConfig(int64(i)), Xi: xi, Watch: true}
	}
	results, stats, err := Run(context.Background(), jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errored != 0 {
		t.Fatalf("%d jobs errored", stats.Errored)
	}
	violated := 0
	for i, r := range results {
		if r.Verdict == nil {
			t.Fatalf("job %d: no verdict", i)
		}
		full, err := sim.Run(*watchConfig(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		bv, err := check.ABC(causality.Build(full.Trace, causality.Options{}), xi)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict.Admissible {
			if r.FirstViolation != -1 {
				t.Fatalf("job %d: admissible but FirstViolation=%d", i, r.FirstViolation)
			}
			if !bv.Admissible {
				t.Fatalf("job %d: watch admissible, batch inadmissible", i)
			}
			if r.Trace.Hash() != full.Trace.Hash() {
				t.Fatalf("job %d: watched run diverged from unwatched run", i)
			}
		} else {
			violated++
			if bv.Admissible {
				t.Fatalf("job %d: watch inadmissible, batch admissible", i)
			}
			if r.FirstViolation != len(r.Trace.Events)-1 {
				t.Fatalf("job %d: FirstViolation=%d, trace ends at %d",
					i, r.FirstViolation, len(r.Trace.Events)-1)
			}
			if r.Verdict.Witness == nil {
				t.Fatalf("job %d: inadmissible without witness", i)
			}
		}
	}
	if violated == 0 || violated == n {
		t.Fatalf("degenerate sweep: %d/%d violations", violated, n)
	}
	if stats.Admissible+stats.Inadmissible != n || stats.Inadmissible != violated {
		t.Fatalf("stats %+v inconsistent with %d violations", stats, violated)
	}
}

// TestWatchJobValidation pins the Watch precondition errors.
func TestWatchJobValidation(t *testing.T) {
	cfg := watchConfig(1)
	for name, job := range map[string]Job{
		"no-xi":       {Key: "w", Cfg: cfg, Watch: true},
		"trace-only":  {Key: "w", Trace: &sim.Trace{N: 1}, Watch: true, Xi: rat.FromInt(2)},
		"own-monitor": {Key: "w", Cfg: &sim.Config{N: cfg.N, Spawn: cfg.Spawn, Delays: cfg.Delays, Monitor: func(*sim.Trace) error { return nil }}, Watch: true, Xi: rat.FromInt(2)},
	} {
		results, _, err := Run(context.Background(), []Job{job}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err == nil {
			t.Errorf("%s: invalid watch job not rejected", name)
		}
	}
}

// TestWatchWithRatio: the ratio search runs on the watched (possibly
// aborted) trace's graph and agrees with a direct search on that trace.
func TestWatchWithRatio(t *testing.T) {
	xi := rat.New(3, 2)
	jobs := []Job{{Key: "w", Cfg: watchConfig(2), Xi: xi, Watch: true, Ratio: true}}
	results, _, err := Run(context.Background(), jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	ratio, found, err := check.MaxRelevantRatio(causality.Build(r.Trace, causality.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if found != r.RatioFound || (found && !ratio.Equal(r.Ratio)) {
		t.Fatalf("ratio (%v,%v) != direct (%v,%v)", r.Ratio, r.RatioFound, ratio, found)
	}
}
