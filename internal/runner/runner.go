// Package runner is a worker-pool fleet for simulation and admissibility
// checking. Run shards a batch of jobs — each a sim.Config to execute
// and/or a trace to check — over a fixed number of goroutines and writes
// each result into its job's slot, so results come back in submission
// order and aggregate outcomes are independent of worker count and
// scheduling. Map runs arbitrary index-addressed work on the same pool.
// The pool is the only place the fleet fans out: the checks a job runs
// (admissibility, ratio search, domain verdicts) are serial on the job's
// worker.
//
// Determinism contract: every job carries its own seed inside its
// sim.Config, every worker runs jobs on a private sim.Engine, and no state
// is shared between jobs, so the trace produced for a job is bit-identical
// (sim.Trace.Hash-equal) to a serial sim.Run of the same Config regardless
// of the worker count. The golden-trace test in this package pins that
// contract for workers ∈ {1, 2, 8}.
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

// poolSize resolves the worker count for a batch of n jobs: workers,
// else GOMAXPROCS, capped at n (and at least 1). pool applies it to Run
// and Map alike.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(min(workers, n), 1)
}

// pool calls work(i) exactly once for every i in [0, n), spread over
// poolSize(workers, n) goroutines, and returns when all calls have
// returned. Each goroutine calls newWorker once and runs its indices
// through the returned function, so per-worker state (a sim.Engine) lives
// in the closure. The calling goroutine feeds the indices in order over an
// unbuffered channel, so a worker picks up the next index only when it is
// free. pool knows nothing of cancellation: a worker function that should
// skip work after ctx is done checks ctx itself.
func pool(n, workers int, newWorker func() func(i int)) {
	workers = poolSize(workers, n)
	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			work := newWorker()
			for i := range indices {
				work(i)
			}
		}()
	}
	for i := range n {
		indices <- i
	}
	close(indices)
	wg.Wait()
}

// Seeds returns the contiguous seed range [from, from+count).
func Seeds(from int64, count int) []int64 {
	out := make([]int64, count)
	for i := range out {
		out[i] = from + int64(i)
	}
	return out
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

// Run executes the batch on workers goroutines (<= 0 means GOMAXPROCS),
// each with a private sim.Engine, and returns one result per job, in
// submission order, together with aggregate statistics. When ctx is
// cancelled, jobs not yet started complete immediately with Err set to
// the context's error; jobs already running finish normally. The returned
// error is the context's error if the run was cancelled; per-job failures
// are reported in the results, not as a run error.
func Run(ctx context.Context, jobs []Job, workers int) ([]JobResult, Stats, error) {
	results := make([]JobResult, len(jobs))
	pool(len(jobs), workers, func() func(int) {
		engine := sim.NewEngine()
		return func(i int) {
			if err := ctx.Err(); err != nil {
				results[i] = JobResult{Index: i, Key: jobs[i].Key, Err: err, FirstViolation: -1}
				return
			}
			start := time.Now()
			results[i] = execute(engine, i, jobs[i])
			results[i].Elapsed = time.Since(start)
		}
	})
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

	// One constraint store per analysed graph: a watched job's ratio
	// search solves the watcher's own; a batch job's verdict and search
	// share one prober.
	var search func() (rat.Rat, bool, error)
	if watcher != nil {
		v := watcher.Verdict()
		res.Verdict = &v
		res.FirstViolation = watcher.FirstViolation()
		res.Graph = watcher.Graph()
		if res.Graph == nil { // empty run: no event ever fired
			res.Graph = causality.Build(res.Trace, causality.Options{})
		}
		search = watcher.MaxRelevantRatio
	} else if job.Xi.Sign() > 0 || job.Ratio {
		if !res.Trace.Complete() {
			res.Err = fmt.Errorf("runner: job %d (%s): batch admissibility/ratio analysis needs a complete trace, got %v retention (use Watch for incremental checking, or full retention)",
				index, job.Key, res.Trace.Retention())
			return res
		}
		res.Graph = causality.Build(res.Trace, causality.Options{})
		prober, err := check.NewProber(res.Graph)
		if err != nil {
			res.Err = fmt.Errorf("runner: job %d (%s): ABC check: %w", index, job.Key, err)
			return res
		}
		if job.Xi.Sign() > 0 {
			v, err := prober.ABC(job.Xi)
			if err != nil {
				res.Err = fmt.Errorf("runner: job %d (%s): ABC check: %w", index, job.Key, err)
				return res
			}
			res.Verdict = &v
		}
		search = prober.MaxRelevantRatio
	}
	if job.Ratio {
		ratio, found, err := search()
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
