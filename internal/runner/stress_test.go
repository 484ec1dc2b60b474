package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestFleetStressLargeBatchTinyPool pushes a large batch through a
// deliberately undersized pool. Run under -race in CI, this exercises the
// index-channel handoff, per-worker engine reuse, and the streaming
// aggregation concurrently and at volume.
func TestFleetStressLargeBatchTinyPool(t *testing.T) {
	const batch = 400
	jobs := seedJobs("stress", batch, func(seed int64) Job {
		// Vary the shape with the seed so pooled engine arrays grow and
		// shrink continuously across one worker's job stream.
		n := 2 + int(seed%4)
		return Job{Cfg: broadcastCfg(n, 3, seed)}
	})
	results, stats, err := Run(context.Background(), jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != batch || stats.Errored != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Spot-check determinism inside the stress volume: job i must equal a
	// serial run of its config.
	for _, i := range []int{0, 17, batch - 1} {
		serial, err := sim.Run(*jobs[i].Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Trace.Hash() != serial.Trace.Hash() {
			t.Errorf("job %d trace differs from serial run", i)
		}
	}
}

// TestFleetCancelledMidBatch cancels the context from inside an early
// job's check. Every submitted job must still produce exactly one result:
// completed jobs a valid one, unstarted jobs a context error. The jobs
// after the cancelling one wait for the cancellation in their own checks,
// so however the workers are scheduled, no worker can run the rest of the
// batch before it lands and some job is always skipped.
func TestFleetCancelledMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const batch = 200
	var cancelled atomic.Bool
	jobs := seedJobs("cancel", batch, func(seed int64) Job {
		job := Job{Cfg: broadcastCfg(2, 3, seed)}
		switch {
		case seed == 3:
			job.Check = func(*sim.Result) error {
				cancel()
				cancelled.Store(true)
				return nil
			}
		case seed > 3:
			job.Check = func(*sim.Result) error {
				<-ctx.Done()
				return nil
			}
		}
		return job
	})

	results, stats, err := Run(ctx, jobs, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if !cancelled.Load() {
		t.Fatal("cancelling check never ran")
	}
	if len(results) != batch || stats.Jobs != batch {
		t.Fatalf("got %d results / %d stats jobs, want %d", len(results), stats.Jobs, batch)
	}
	completed, skipped := 0, 0
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		switch {
		case r.Err == nil:
			completed++
			if r.Trace == nil || len(r.Trace.Events) == 0 {
				t.Errorf("completed job %d has no trace", i)
			}
		case errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Errorf("job %d unexpected error: %v", i, r.Err)
		}
	}
	if completed == 0 {
		t.Error("no job completed before cancellation")
	}
	if skipped == 0 {
		t.Error("cancellation mid-batch skipped nothing")
	}
	if stats.Errored != skipped {
		t.Errorf("stats.Errored = %d, want %d", stats.Errored, skipped)
	}
}

// TestFleetCancelledBeforeStart submits to an already-cancelled context:
// every job must come back promptly with the context error.
func TestFleetCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := seedJobs("dead", 50, func(seed int64) Job {
		return Job{Cfg: broadcastCfg(2, 3, seed)}
	})
	results, stats, err := Run(ctx, jobs, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v", err)
	}
	if stats.Errored != len(jobs) {
		t.Errorf("stats.Errored = %d, want %d", stats.Errored, len(jobs))
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d error = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestMapCancelledMidBatch mirrors the cancellation contract for the
// generic fan-out.
func TestMapCancelledMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Map(ctx, 100, 2, func(i int) (int, error) {
		if i == 5 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Map error = %v, want context.Canceled", err)
	}
}
