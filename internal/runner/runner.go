// Package runner is a worker-pool fleet for simulation and admissibility
// checking. It shards batches of jobs — each a sim.Config to execute and/or
// a trace to check — across GOMAXPROCS-bounded goroutines, streams per-job
// results over a channel as they complete, and collects them back into the
// stable (batch, index) order so that aggregate outcomes are independent of
// worker count and scheduling.
//
// Determinism contract: every job carries its own seed inside its
// sim.Config, every worker runs jobs on a private sim.Engine, and no state
// is shared between jobs, so the trace produced for a job is bit-identical
// (sim.Trace.Hash-equal) to a serial sim.Run of the same Config regardless
// of Workers. The golden-trace test in this package pins that contract for
// workers ∈ {1, 2, 8}.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/sim"
)

// Job is one unit of fleet work: either a simulation to run (Cfg) or a
// pre-built trace to analyze (Trace), optionally followed by an ABC
// admissibility check, a critical-ratio search, and a custom check.
type Job struct {
	// Key labels the job in results and stats (e.g. "E9/seed=3").
	Key string
	// Cfg, when non-nil, is the simulation to execute.
	Cfg *sim.Config
	// Trace, when non-nil (and Cfg is nil), is an existing trace to
	// analyze — e.g. a hand-built scenario figure.
	Trace *sim.Trace
	// Xi, when > 0, requests an ABC(Ξ) admissibility check of the job's
	// trace; the verdict lands in JobResult.Verdict.
	Xi rat.Rat
	// Watch streams the ABC(Ξ=Xi) check through the incremental engine
	// while the simulation runs (requires Cfg and Xi > 0): the run aborts
	// at the first violating event, JobResult.FirstViolation records its
	// trace position, and Verdict comes from the monitor instead of a
	// batch re-check. The job's Cfg must not set its own sim Monitor.
	Watch bool
	// Ratio requests the exact critical-ratio search on the job's trace.
	Ratio bool
	// Check, when non-nil, runs on the worker after the simulation; its
	// error is recorded in JobResult.CheckErr (a check failure, distinct
	// from the infrastructure error in JobResult.Err).
	Check func(*sim.Result) error
	// Post, when non-nil, runs on the worker after everything else with
	// the complete job result — trace, graph, verdict, ratio. It is the
	// domain-check hook of the workload pipeline (internal/workload):
	// theorem monitors, protocol invariants, model comparisons. Its error
	// is recorded in JobResult.CheckErr when Check did not already fail.
	Post func(*JobResult) error
}

// JobResult is the outcome of one job. Exactly one result is produced per
// submitted job, carrying the job's batch index so collected slices are in
// submission order.
type JobResult struct {
	// Index is the job's position in the submitted batch.
	Index int
	// Key echoes Job.Key.
	Key string
	// Sim is the simulation result (nil for trace-only jobs).
	Sim *sim.Result
	// Trace is the analyzed trace: Sim.Trace for simulation jobs, the
	// submitted trace otherwise.
	Trace *sim.Trace
	// Graph is the execution graph, built only when the job requested an
	// admissibility check or ratio search.
	Graph *causality.Graph
	// Xi echoes Job.Xi — the Ξ the admissibility check (if any) ran
	// against, which Post hooks need when a sweep overrides the
	// workload's own parameter.
	Xi rat.Rat
	// Verdict is the ABC(Ξ) verdict when Job.Xi > 0.
	Verdict *check.Verdict
	// Ratio and RatioFound report the critical-ratio search when
	// Job.Ratio was set.
	Ratio      rat.Rat
	RatioFound bool
	// FirstViolation is the Trace.Events position of the earliest event
	// whose prefix graph is inadmissible, for Watch jobs; -1 when the run
	// stayed admissible or the job did not watch.
	FirstViolation int
	// CheckErr is the error returned by Job.Check, if any.
	CheckErr error
	// Elapsed is the wall-clock time the job spent on its worker, from
	// pickup to result — simulation, graph build, checks, and hooks
	// included. Zero for jobs cancelled before they started.
	Elapsed time.Duration
	// Err reports an infrastructure failure: invalid config, checker
	// error, or context cancellation before the job started.
	Err error
}

// Admissible reports whether the job's ABC check passed (false when no
// check was requested or the job errored).
func (r JobResult) Admissible() bool {
	return r.Err == nil && r.Verdict != nil && r.Verdict.Admissible
}

// CompletedAdmissible reports whether a simulation job ran to completion
// (neither truncated nor aborted at a watch violation) without being
// proven inadmissible — the shared precondition of the domain theorem
// verdicts in the workload registrations. requireVerdict additionally
// demands that an ABC check actually ran: theorems that presuppose
// perpetual admissibility (Sections 3/5) must pass true, while checks
// whose claims survive without it (the ◇ABC variants) pass false.
func (r JobResult) CompletedAdmissible(requireVerdict bool) bool {
	if r.Sim == nil || r.Sim.Truncated || r.FirstViolation >= 0 {
		return false
	}
	if r.Verdict == nil {
		return !requireVerdict
	}
	return r.Verdict.Admissible
}

// Options configures a fleet run.
type Options struct {
	// Workers is the number of concurrent workers; <= 0 means
	// runtime.GOMAXPROCS(0). Either way the pool never exceeds the
	// batch size.
	Workers int
}

// poolSize resolves the worker count for a batch of n jobs: workers,
// else GOMAXPROCS, capped at n (and at least 1). Shared by Stream and Map.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// Stats aggregates a completed batch.
type Stats struct {
	// Jobs is the number of submitted jobs; Errored counts jobs with a
	// non-nil Err (including cancellations), CheckFailed those whose
	// custom check failed, Truncated those whose simulation hit its
	// event or time budget.
	Jobs, Errored, CheckFailed, Truncated int
	// Admissible and Inadmissible count ABC verdicts (jobs without an
	// Xi check count toward neither).
	Admissible, Inadmissible int
	// Events and Msgs total the trace sizes across successful jobs.
	Events, Msgs int
	// MaxRatio is the largest critical ratio observed across jobs that
	// requested the ratio search; MaxRatioKey names the job.
	MaxRatio      rat.Rat
	MaxRatioFound bool
	MaxRatioKey   string
}

// add folds one result into the aggregate.
func (s *Stats) add(r JobResult) {
	s.Jobs++
	if r.Err != nil {
		s.Errored++
		return
	}
	if r.CheckErr != nil {
		s.CheckFailed++
	}
	if r.Sim != nil && r.Sim.Truncated {
		s.Truncated++
	}
	if r.Trace != nil {
		// Totals, not slice lengths: bounded-retention traces count every
		// event and message the run produced, not just those retained.
		s.Events += r.Trace.TotalEvents()
		s.Msgs += r.Trace.TotalMsgs()
	}
	if r.Verdict != nil {
		if r.Verdict.Admissible {
			s.Admissible++
		} else {
			s.Inadmissible++
		}
	}
	if r.RatioFound && (!s.MaxRatioFound || r.Ratio.Greater(s.MaxRatio)) {
		s.MaxRatio, s.MaxRatioFound, s.MaxRatioKey = r.Ratio, true, r.Key
	}
}

// errJobEmpty is returned for jobs with neither a Cfg nor a Trace.
var errJobEmpty = errors.New("runner: job has neither Cfg nor Trace")

// Stream executes the batch and delivers results over the returned channel
// in completion order (use Run for submission order). The channel is
// closed once every job has produced exactly one result. When ctx is
// cancelled, jobs not yet started complete immediately with Err set to the
// context's error; jobs already in flight finish normally.
func Stream(ctx context.Context, jobs []Job, opts Options) <-chan JobResult {
	workers := poolSize(opts.Workers, len(jobs))
	indices := make(chan int)
	out := make(chan JobResult, workers)

	go func() {
		defer close(indices)
		for i := range jobs {
			select {
			case indices <- i:
			case <-ctx.Done():
				// Drain the remaining indices as cancelled results so
				// every job is accounted for.
				for j := i; j < len(jobs); j++ {
					out <- JobResult{Index: j, Key: jobs[j].Key, Err: ctx.Err(), FirstViolation: -1}
				}
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			engine := sim.NewEngine()
			for i := range indices {
				if err := ctx.Err(); err != nil {
					out <- JobResult{Index: i, Key: jobs[i].Key, Err: err, FirstViolation: -1}
					continue
				}
				start := time.Now()
				r := execute(engine, i, jobs[i])
				r.Elapsed = time.Since(start)
				out <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Run executes the batch and returns one result per job, in submission
// order, together with aggregate statistics. The returned error is the
// context's error if the run was cancelled; per-job failures are reported
// in the results, not as a run error.
func Run(ctx context.Context, jobs []Job, opts Options) ([]JobResult, Stats, error) {
	results := make([]JobResult, len(jobs))
	for r := range Stream(ctx, jobs, opts) {
		results[r.Index] = r
	}
	var stats Stats
	for _, r := range results {
		stats.add(r)
	}
	return results, stats, ctx.Err()
}

// execute runs one job on a worker's private engine.
func execute(engine *sim.Engine, index int, job Job) JobResult {
	res := JobResult{Index: index, Key: job.Key, Xi: job.Xi, FirstViolation: -1}
	var watcher *check.Watcher
	switch {
	case job.Cfg != nil:
		cfg := *job.Cfg
		if job.Watch {
			if job.Xi.Sign() <= 0 {
				res.Err = fmt.Errorf("runner: job %d (%s): Watch requires Xi > 0", index, job.Key)
				return res
			}
			if cfg.Monitor != nil {
				res.Err = fmt.Errorf("runner: job %d (%s): Watch conflicts with Cfg.Monitor", index, job.Key)
				return res
			}
			w, err := check.NewWatcher(job.Xi, causality.Options{})
			if err != nil {
				res.Err = fmt.Errorf("runner: job %d (%s): %w", index, job.Key, err)
				return res
			}
			watcher = w
			cfg.Monitor = w.Monitor
		}
		sr, err := engine.Run(cfg)
		if err != nil {
			res.Err = fmt.Errorf("runner: job %d (%s): %w", index, job.Key, err)
			return res
		}
		if sr.MonitorErr != nil && sr.MonitorErr != check.ErrInadmissible {
			res.Err = fmt.Errorf("runner: job %d (%s): watch: %w", index, job.Key, sr.MonitorErr)
			return res
		}
		res.Sim, res.Trace = sr, sr.Trace
	case job.Trace != nil:
		if job.Watch {
			res.Err = fmt.Errorf("runner: job %d (%s): Watch requires Cfg", index, job.Key)
			return res
		}
		res.Trace = job.Trace
	default:
		res.Err = errJobEmpty
		return res
	}

	if watcher != nil {
		v := watcher.Verdict()
		res.Verdict = &v
		res.FirstViolation = watcher.FirstViolation()
		res.Graph = watcher.Graph()
		if res.Graph == nil { // empty run: no event ever fired
			res.Graph = causality.Build(res.Trace, causality.Options{})
		}
	} else if job.Xi.Sign() > 0 || job.Ratio {
		if !res.Trace.Complete() {
			res.Err = fmt.Errorf("runner: job %d (%s): batch admissibility/ratio analysis needs a complete trace, got %v retention (use Watch for incremental checking, or full retention)",
				index, job.Key, res.Trace.Retention())
			return res
		}
		res.Graph = causality.Build(res.Trace, causality.Options{})
	}
	if job.Xi.Sign() > 0 && watcher == nil {
		v, err := check.ABC(res.Graph, job.Xi)
		if err != nil {
			res.Err = fmt.Errorf("runner: job %d (%s): ABC check: %w", index, job.Key, err)
			return res
		}
		res.Verdict = &v
	}
	if job.Ratio {
		ratio, found, err := check.MaxRelevantRatio(res.Graph)
		if err != nil {
			res.Err = fmt.Errorf("runner: job %d (%s): ratio search: %w", index, job.Key, err)
			return res
		}
		res.Ratio, res.RatioFound = ratio, found
	}
	if job.Check != nil {
		res.CheckErr = job.Check(res.Sim)
	}
	if job.Post != nil && res.CheckErr == nil {
		res.CheckErr = job.Post(&res)
	}
	return res
}
