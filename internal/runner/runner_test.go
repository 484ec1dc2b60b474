package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/rat"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// broadcastCfg is the small reference workload used across the package's
// tests: n processes, each broadcasting for the first `steps` steps.
func broadcastCfg(n, steps int, seed int64) *sim.Config {
	return &sim.Config{
		N: n,
		Spawn: func(sim.ProcessID) sim.Process {
			return sim.ProcessFunc(func(env *sim.Env, msg sim.Message) {
				if env.StepIndex() < steps {
					env.Broadcast(env.StepIndex())
				}
			})
		},
		Delays:    sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)},
		Seed:      seed,
		MaxEvents: 100000,
	}
}

// seedJobs replicates one configuration across seeds 0..count-1, keying
// job i "name/seed=i".
func seedJobs(name string, count int, mk func(seed int64) Job) []Job {
	jobs := make([]Job, count)
	for i := range jobs {
		jobs[i] = mk(int64(i))
		jobs[i].Key = fmt.Sprintf("%s/seed=%d", name, i)
	}
	return jobs
}

func TestRunCollectsInSubmissionOrder(t *testing.T) {
	jobs := seedJobs("order", 9, func(seed int64) Job {
		return Job{Cfg: broadcastCfg(3, 4, seed)}
	})
	results, stats, err := Run(context.Background(), jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if want := fmt.Sprintf("order/seed=%d", i); r.Key != want {
			t.Errorf("result %d key %q, want %q", i, r.Key, want)
		}
		if r.Err != nil {
			t.Errorf("result %d: %v", i, r.Err)
		}
		if r.Trace == nil || len(r.Trace.Events) == 0 {
			t.Errorf("result %d has empty trace", i)
		}
		if r.Elapsed <= 0 {
			t.Errorf("result %d: Elapsed not recorded", i)
		}
	}
	if stats.Jobs != 9 || stats.Errored != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Events == 0 || stats.Msgs == 0 {
		t.Errorf("stats did not aggregate trace sizes: %+v", stats)
	}
}

func TestJobChecksAndVerdicts(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		// Fig. 1's relevant cycle has the exactly known critical ratio
		// 5/4: admissible at Ξ=2, and the ratio search must find it.
		{Key: "fig1", Trace: scenario.BuildFig1().Trace, Xi: rat.FromInt(2), Ratio: true},
		{Key: "check-fails", Cfg: broadcastCfg(3, 4, 2), Check: func(*sim.Result) error { return boom }},
		{Key: "bad-config", Cfg: &sim.Config{N: -1}},
		{Key: "empty"},
	}
	results, stats, err := Run(context.Background(), jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Admissible() {
		t.Errorf("Fig. 1 not admissible at Ξ=2: %+v", results[0].Verdict)
	}
	if results[0].Graph == nil {
		t.Error("graph not retained for checked job")
	}
	if !results[0].RatioFound || !results[0].Ratio.Equal(rat.New(5, 4)) {
		t.Errorf("Fig. 1 critical ratio = %v (found=%v), want 5/4",
			results[0].Ratio, results[0].RatioFound)
	}
	if !errors.Is(results[1].CheckErr, boom) {
		t.Errorf("CheckErr = %v, want boom", results[1].CheckErr)
	}
	if results[2].Err == nil {
		t.Error("invalid config did not error")
	}
	if !errors.Is(results[3].Err, errJobEmpty) {
		t.Errorf("empty job error = %v", results[3].Err)
	}
	if stats.Errored != 2 || stats.CheckFailed != 1 || stats.Admissible != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if !stats.MaxRatioFound || stats.MaxRatioKey != "fig1" {
		t.Errorf("max ratio not aggregated: %+v", stats)
	}
}

func TestTraceOnlyJobs(t *testing.T) {
	// A pre-built trace (no simulation) still supports checks: run a
	// simulation once, then submit its trace as a trace-only job.
	sr, err := sim.Run(*broadcastCfg(3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Key: "trace", Trace: sr.Trace, Xi: rat.FromInt(2)}}
	results, _, err := Run(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Sim != nil {
		t.Error("trace-only job has a Sim result")
	}
	if !results[0].Admissible() {
		t.Error("trace-only job not checked")
	}
}

func TestMapOrderAndErrors(t *testing.T) {
	got, err := Map(context.Background(), 20, 4, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
	// Two tasks fail; whichever finishes first, the error of the lower
	// index is the one returned.
	mapErr := errors.New("task 7 failed")
	_, err = Map(context.Background(), 20, 4, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, mapErr
		case 13:
			return 0, errors.New("task 13 failed")
		}
		return i, nil
	})
	if !errors.Is(err, mapErr) {
		t.Errorf("Map error = %v, want %v", err, mapErr)
	}
}

// TestPoolSize pins the worker-count rule of the pool behind Run and
// Map: the requested width, else GOMAXPROCS, never more than the batch
// size and never less than one worker.
func TestPoolSize(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ workers, jobs, want int }{
		{0, 1000, procs},  // default width on a wide batch
		{-3, 1000, procs}, // negative means default too
		{0, 1, 1},         // capped at the batch
		{8, 100, 8},       // explicit width may exceed the cores
		{8, 3, 3},         // ... but not the batch
		{4, 0, 1},         // empty batch still gets one worker
	}
	for _, tc := range cases {
		if got := poolSize(tc.workers, tc.jobs); got != tc.want {
			t.Errorf("poolSize(%d, %d) = %d, want %d", tc.workers, tc.jobs, got, tc.want)
		}
	}
}

// TestPoolCallsEveryIndexExactlyOnce counts the calls the pool makes per
// index through Map, over more indices than workers: each index must run
// exactly once.
func TestPoolCallsEveryIndexExactlyOnce(t *testing.T) {
	const n = 64
	var calls [n]atomic.Int32
	if _, err := Map(context.Background(), n, 3, func(i int) (struct{}, error) {
		calls[i].Add(1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}
