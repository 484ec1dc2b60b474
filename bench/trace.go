package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/rat"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"

	_ "repro/internal/workload/all"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Job spans are roots (Parent 0); the
// layers a job calls are their children. Per-event layers are not one
// span per call: they are aggregated as count and total on the sim.run
// span (Agg).
type span struct {
	ID      int            `json:"id"`
	Job     int            `json:"job"`
	Parent  int            `json:"parent"`
	Name    string         `json:"name"`
	StartNS int64          `json:"startNs"`
	DurNS   int64          `json:"durNs"`
	Agg     map[string]agg `json:"agg,omitempty"`
}

type agg struct {
	Count int64 `json:"count"`
	NS    int64 `json:"ns,omitempty"`
}

// tracer keeps one workload's spans in memory. Every span adds to the
// per-name totals the layer metrics come from; only the spans of the
// first keepJobs jobs are kept for the report, which bounds its size on
// the catalogue.
type tracer struct {
	origin   time.Time
	keepJobs int
	spans    []span
	nextID   int
	totalNS  map[string]int64
	aggs     map[string]agg
}

func newTracer(keepJobs int) *tracer {
	return &tracer{origin: time.Now(), keepJobs: keepJobs, totalNS: map[string]int64{}, aggs: map[string]agg{}}
}

func (t *tracer) newSpan(job, parent int, name string) span {
	t.nextID++
	return span{ID: t.nextID, Job: job, Parent: parent, Name: name}
}

func (t *tracer) record(s span, start time.Time, d time.Duration) {
	s.StartNS, s.DurNS = start.Sub(t.origin).Nanoseconds(), d.Nanoseconds()
	t.totalNS[s.Name] += s.DurNS
	for name, a := range s.Agg {
		tot := t.aggs[name]
		tot.Count += a.Count
		tot.NS += a.NS
		t.aggs[name] = tot
	}
	if s.Job <= t.keepJobs {
		t.spans = append(t.spans, s)
	}
}

// call runs f inside a span named name, child of parent within job.
func (t *tracer) call(job, parent int, name string, f func()) {
	s := t.newSpan(job, parent, name)
	start := time.Now()
	f()
	t.record(s, start, time.Since(start))
}

// stepTimer wraps a process so that each Process.Step is timed into its
// per-process accumulator.
type stepTimer struct {
	inner sim.Process
	acc   *agg
}

func (p *stepTimer) Step(env *sim.Env, msg sim.Message) {
	start := time.Now()
	p.inner.Step(env, msg)
	p.acc.NS += int64(time.Since(start))
	p.acc.Count++
}

// countingSink keeps a retention policy and counts what the engine
// finalizes: events, messages, the largest number sent but not yet
// received, and event times that left the rat inline representation. It
// is not one of the engine's built-in sinks, so the engine copies every
// event and message out to it; it is therefore installed only on an
// untimed re-run (see recount).
type countingSink struct {
	ret                          sim.Retention
	events, msgs, peak, promoted int64
}

func (s *countingSink) Retention() sim.Retention { return s.ret }

func (s *countingSink) Event(ev *sim.Event) {
	s.events++
	if _, _, ok := ev.Time.Inline(); !ok {
		s.promoted++
	}
}

func (s *countingSink) Message(*sim.Message) {
	s.msgs++
	if d := s.msgs - s.events; d > s.peak {
		s.peak = d
	}
}

// traced is the result of one workload's traced pass: its failures and
// the counts measured beside the spans.
type traced struct {
	Attempted, Failed int
	Failures          []string

	events, msgs, promoted, inflightPeak int64
	allocBytes, liveHeapBytes            uint64
	graphNodes, graphEdges               int64
}

// heapAllocs reads the cumulative heap allocation counter without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracePass rebuilds the workload's jobs in process exactly as abcsim
// does (workload.Source.Jobs with Ratio) and runs each one serially on one
// reused engine, calling every layer itself: the engine, the incremental
// watcher, the batch graph build, the ABC check, the critical-ratio search
// and the domain verdict, each inside a span. Each job's outcome must
// equal want, the untraced records' outcomes in the same order.
func tracePass(w workloadDef, seed int64, want []outcome, tr *tracer) traced {
	var out traced
	fail := func(msg string) {
		out.Failed++
		out.Failures = append(out.Failures, msg)
	}
	engine := sim.NewEngine()
	for _, inv := range w.invs {
		jobs, err := buildJobs(inv, seed)
		if err != nil {
			out.Attempted += inv.Runs
			out.Failed += inv.Runs
			out.Failures = append(out.Failures, err.Error())
			continue
		}
		for _, job := range jobs {
			i := out.Attempted
			out.Attempted++
			got, err := traceJob(engine, job, out.Attempted, tr, &out)
			switch {
			case err != nil:
				fail(fmt.Sprintf("%s: %v", job.Key, err))
			case i >= len(want):
				fail(fmt.Sprintf("%s: traced job %d, untraced runs have %d", job.Key, i+1, len(want)))
			case got != want[i]:
				fail(fmt.Sprintf("%s: traced %+v, untraced %+v", job.Key, got, want[i]))
			}
		}
	}
	if out.Attempted < len(want) {
		fail(fmt.Sprintf("traced pass ran %d jobs, untraced runs %d", out.Attempted, len(want)))
	}
	return out
}

// buildJobs generates an invocation's jobs as abcsim does.
func buildJobs(inv invocation, seed int64) ([]runner.Job, error) {
	src, ok := workload.Lookup(inv.Source)
	if !ok {
		return nil, fmt.Errorf("unknown workload source %q", inv.Source)
	}
	base, err := src.Resolve(inv.overrides())
	if err != nil {
		return nil, err
	}
	return src.Jobs(base, runner.Seeds(seed, inv.Runs), workload.JobOptions{Watch: inv.Watch, Ratio: true})
}

// traceJob runs one job through the layers runner.Run would call, in the
// same order, with spans around each, and adds its counts to out. It
// returns the job's outcome as abcsim -json reports it.
func traceJob(engine *sim.Engine, job runner.Job, id int, tr *tracer, out *traced) (outcome, error) {
	res := runner.JobResult{Key: job.Key, Xi: job.Xi, FirstViolation: -1}
	root := tr.newSpan(id, 0, "job")
	var watcher *check.Watcher
	var cfg sim.Config
	var steps []agg
	var monitor, until agg
	if job.Cfg != nil {
		cfg = *job.Cfg
		// Until predicates type-assert the process state machines, so
		// they are handed the unwrapped ones.
		steps = make([]agg, cfg.N)
		inner := make([]sim.Process, cfg.N)
		spawn := cfg.Spawn
		cfg.Spawn = func(p sim.ProcessID) sim.Process {
			proc := spawn(p)
			inner[p] = proc
			if f, ok := cfg.Faults[p]; ok && f.Byzantine != nil {
				inner[p] = f.Byzantine
			}
			return &stepTimer{inner: proc, acc: &steps[p]}
		}
		if pred := cfg.Until; pred != nil {
			cfg.Until = func([]sim.Process) bool {
				start := time.Now()
				stop := pred(inner)
				until.NS += int64(time.Since(start))
				until.Count++
				return stop
			}
		}
		if job.Watch {
			w, err := check.NewWatcher(job.Xi, causality.Options{})
			if err != nil {
				return outcome{}, err
			}
			watcher = w
			cfg.Monitor = func(t *sim.Trace) error {
				start := time.Now()
				err := w.Monitor(t)
				monitor.NS += int64(time.Since(start))
				monitor.Count++
				return err
			}
		}
	}

	jobStart := time.Now()
	var err error
	if job.Cfg != nil {
		run := tr.newSpan(id, root.ID, "sim.run")
		allocs := heapAllocs()
		start := time.Now()
		var sr *sim.Result
		sr, err = engine.Run(cfg)
		d := time.Since(start)
		out.allocBytes += heapAllocs() - allocs
		var step agg
		for _, s := range steps {
			step.Count += s.Count
			step.NS += s.NS
		}
		run.Agg = map[string]agg{"sim.step": step}
		if until.Count > 0 {
			run.Agg["sim.until"] = until
		}
		if monitor.Count > 0 {
			run.Agg["check.monitor"] = monitor
		}
		tr.record(run, start, d)
		if err == nil && sr.MonitorErr != nil && sr.MonitorErr != check.ErrInadmissible {
			err = fmt.Errorf("watch: %w", sr.MonitorErr)
		}
		if err == nil {
			res.Sim, res.Trace = sr, sr.Trace
			// Domain verdicts type-assert the final state machines.
			for p, proc := range sr.Procs {
				if t, ok := proc.(*stepTimer); ok {
					sr.Procs[p] = t.inner
				}
			}
		}
	} else {
		res.Trace = job.Trace
	}
	if err == nil {
		err = traceAnalyses(job, &res, watcher, id, root.ID, tr)
	}
	tr.record(root, jobStart, time.Since(jobStart))
	if err != nil {
		return outcome{}, err
	}

	if res.Graph != nil {
		out.graphNodes += int64(res.Graph.NumNodes())
		out.graphEdges += int64(res.Graph.NumEdges())
	}
	if watcher != nil {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(watcher)
		runtime.KeepAlive(&res)
		out.liveHeapBytes = max(out.liveHeapBytes, ms.HeapAlloc)
	}
	if job.Cfg != nil {
		out.events += int64(res.Trace.TotalEvents())
		out.msgs += int64(res.Trace.TotalMsgs())
		if err := recount(*job.Cfg, job.Watch, res.Trace, id, tr, out); err != nil {
			return outcome{}, err
		}
	}
	return outcomeOf(job, res), nil
}

// outcomeOf renders a job's result the way abcsim -json does.
func outcomeOf(job runner.Job, res runner.JobResult) outcome {
	o := outcome{FirstViolation: res.FirstViolation, StreamHash: fmt.Sprintf("%016x", res.Trace.StreamHash())}
	if res.Verdict != nil {
		o.Verdict = "admissible"
		if !res.Verdict.Admissible {
			o.Verdict = "inadmissible"
		}
	}
	if res.RatioFound {
		o.Ratio = res.Ratio.String()
	}
	if res.CheckErr != nil {
		o.DomainCheck = "failed: " + res.CheckErr.Error()
	} else if job.Post != nil {
		o.DomainCheck = "ok"
	}
	if res.Sim != nil {
		o.Truncated = res.Sim.Truncated
	}
	return o
}

// traceAnalyses is the post-simulation half of a job, as runner.Run runs
// it: the watcher's graph or a batch graph build, the batch ABC check, the
// critical-ratio search, and the domain verdict.
func traceAnalyses(job runner.Job, res *runner.JobResult, watcher *check.Watcher, id, parent int, tr *tracer) error {
	var err error
	if watcher != nil {
		v := watcher.Verdict()
		res.Verdict = &v
		res.FirstViolation = watcher.FirstViolation()
		tr.call(id, parent, "causality.finalize", func() { res.Graph = watcher.Graph() })
		if res.Graph == nil {
			tr.call(id, parent, "causality.build", func() { res.Graph = causality.Build(res.Trace, causality.Options{}) })
		}
	} else if job.Xi.Sign() > 0 || job.Ratio {
		if !res.Trace.Complete() {
			return fmt.Errorf("batch analysis needs a complete trace, got %v retention", res.Trace.Retention())
		}
		tr.call(id, parent, "causality.build", func() { res.Graph = causality.Build(res.Trace, causality.Options{}) })
	}
	if job.Xi.Sign() > 0 && watcher == nil {
		var v check.Verdict
		tr.call(id, parent, "check.abc", func() { v, err = check.ABC(res.Graph, job.Xi) })
		if err != nil {
			return fmt.Errorf("ABC check: %w", err)
		}
		res.Verdict = &v
	}
	if job.Ratio {
		tr.call(id, parent, "check.ratio", func() { res.Ratio, res.RatioFound, err = check.MaxRelevantRatio(res.Graph) })
		if err != nil {
			return fmt.Errorf("ratio search: %w", err)
		}
	}
	if job.Check != nil {
		tr.call(id, parent, "job.check", func() { res.CheckErr = job.Check(res.Sim) })
	}
	if job.Post != nil && res.CheckErr == nil {
		tr.call(id, parent, "workload.verdict", func() { res.CheckErr = job.Post(res) })
	}
	return nil
}

// recount re-runs a job's configuration, untimed and without monitor, with
// a countingSink, and adds its in-flight peak and promoted event times to
// out; the timed run keeps the workload's own Sink, so the engine path it
// times is the one abcsim runs. The re-run must reproduce the timed run's
// digest and totals. A watched job's re-run keeps every event, and one
// causality.Builder.Append over that complete trace is timed: the
// graph-append part of the watcher's Monitor time.
func recount(cfg sim.Config, watched bool, timed *sim.Trace, id int, tr *tracer, out *traced) error {
	sink := &countingSink{ret: sim.Retention{Mode: sim.RetainFullMode}}
	if cfg.Sink != nil && !watched {
		sink.ret = cfg.Sink.Retention()
	}
	cfg.Sink, cfg.Monitor = sink, nil
	sr, err := sim.Run(cfg)
	if err != nil {
		return fmt.Errorf("re-run: %w", err)
	}
	if h, want := sr.Trace.StreamHash(), timed.StreamHash(); h != want || sink.events != int64(timed.TotalEvents()) || sink.msgs != int64(timed.TotalMsgs()) {
		return fmt.Errorf("re-run gave digest %016x, %d events, %d messages; timed run %016x, %d, %d",
			h, sink.events, sink.msgs, want, timed.TotalEvents(), timed.TotalMsgs())
	}
	out.promoted += sink.promoted
	out.inflightPeak = max(out.inflightPeak, sink.peak)
	if !watched {
		return nil
	}
	b, err := causality.NewBuilder(sr.Trace, causality.Options{})
	if err != nil {
		return fmt.Errorf("re-run: %w", err)
	}
	tr.call(id, 0, "causality.append", func() { _, err = b.Append() })
	if err != nil {
		return fmt.Errorf("re-run: %w", err)
	}
	return nil
}

// ladderSink keeps microbenchmark results live so the compiler cannot
// drop the measured calls.
var ladderSink rat.Rat

// ladder times three per-event operations through their public APIs: an
// exact rational addition on inline operands, the same on operands beyond
// int64 (the big.Rat path), and one uniform delay draw. Each is the
// median of five timed loops, in ns per operation.
func ladder() map[string]float64 {
	huge := new(big.Int).Lsh(big.NewInt(1), 70)
	small := [2]rat.Rat{rat.New(3, 7), rat.New(5, 11)}
	promoted := [2]rat.Rat{
		rat.FromBig(new(big.Rat).SetFrac(new(big.Int).Add(huge, big.NewInt(1)), big.NewInt(3))),
		rat.FromBig(new(big.Rat).SetFrac(new(big.Int).Add(huge, big.NewInt(5)), big.NewInt(7))),
	}
	delay := sim.UniformDelay{Min: rat.One, Max: rat.New(3, 2)}
	rng := rand.New(rand.NewSource(1))
	return map[string]float64{
		"ladder.rat_add_ns": nsPerOp(1<<20, func(n int) {
			for i := 0; i < n; i++ {
				ladderSink = small[i&1].Add(small[1-i&1])
			}
		}),
		"ladder.rat_add_promoted_ns": nsPerOp(1<<15, func(n int) {
			for i := 0; i < n; i++ {
				ladderSink = promoted[i&1].Add(promoted[1-i&1])
			}
		}),
		"ladder.delay_ns": nsPerOp(1<<18, func(n int) {
			for i := 0; i < n; i++ {
				ladderSink = delay.Delay(sim.Message{}, rng)
			}
		}),
	}
}

// nsPerOp returns the median over five runs of loop(n), per operation.
func nsPerOp(n int, loop func(n int)) float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		loop(n)
		ts = append(ts, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(ts)
}

// layerUnits are the per-layer metrics, with their units. A *_s time is
// reported only for a layer the workload calls; shares (*_frac, of the
// traced job time) and counts are always reported, 0 for a layer never
// called, so every value a run prints is measured or a true zero.
var layerUnits = map[string]string{
	"sim.run_s":                  "s",
	"sim.step_s":                 "s",
	"sim.until_s":                "s",
	"sim.engine_self_s":          "s",
	"sim.ns_per_event":           "ns",
	"sim.events":                 "count",
	"sim.msgs":                   "count",
	"sim.inflight_peak":          "count",
	"sim.alloc_mb":               "MiB",
	"sim.shards_used":            "count",
	"sim.step_frac":              "frac",
	"sim.until_frac":             "frac",
	"sim.engine_self_frac":       "frac",
	"rat.promoted_frac":          "frac",
	"check.monitor_s":            "s",
	"causality.append_s":         "s",
	"check.repair_s":             "s",
	"check.monitor_frac":         "frac",
	"causality.append_frac":      "frac",
	"check.repair_frac":          "frac",
	"check.graph_nodes":          "count",
	"check.graph_edges":          "count",
	"check.live_heap_mb":         "MiB",
	"causality.finalize_s":       "s",
	"causality.build_s":          "s",
	"check.abc_s":                "s",
	"check.ratio_s":              "s",
	"workload.verdict_s":         "s",
	"causality.finalize_frac":    "frac",
	"causality.build_frac":       "frac",
	"check.abc_frac":             "frac",
	"check.ratio_frac":           "frac",
	"workload.verdict_frac":      "frac",
	"runner.busy_frac":           "frac",
	"trace.job_s":                "s",
	"trace.overhead_frac":        "frac",
	"trace.coverage_frac":        "frac",
	"ladder.rat_add_ns":          "ns",
	"ladder.rat_add_promoted_ns": "ns",
	"ladder.delay_ns":            "ns",
	"ladder.delay_share_frac":    "frac",
}

// jobLayers are the spans a job span's time is divided among; their sum
// over the job total is trace.coverage_frac.
var jobLayers = []string{"sim.run", "causality.finalize", "causality.build", "check.abc", "check.ratio", "job.check", "workload.verdict"}

// layerMetrics derives the per-layer metrics of one workload from its
// traced pass (spans and counts), its untraced samples (shard count,
// runner busy share, untraced job time) and the ladder.
func layerMetrics(tr *tracer, t traced, samples []sample, lad map[string]float64) map[string]float64 {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	job := sec(tr.totalNS["job"])
	share := func(s float64) float64 {
		if job == 0 {
			return 0
		}
		return s / job
	}
	m := map[string]float64{}
	timed := func(name string, s float64, called bool) {
		if called {
			m[name+"_s"] = s
		}
		m[name+"_frac"] = share(s)
	}

	run := sec(tr.totalNS["sim.run"])
	step, until, monitor := tr.aggs["sim.step"], tr.aggs["sim.until"], tr.aggs["check.monitor"]
	self := run - sec(step.NS) - sec(until.NS) - sec(monitor.NS)
	m["sim.run_s"] = run
	m["sim.engine_self_s"] = self
	timed("sim.step", sec(step.NS), true)
	timed("sim.until", sec(until.NS), until.Count > 0)
	m["sim.engine_self_frac"] = share(self)
	if t.events > 0 {
		m["sim.ns_per_event"] = 1e9 * run / float64(t.events)
		m["rat.promoted_frac"] = float64(t.promoted) / float64(t.events)
	}
	m["sim.events"] = float64(t.events)
	m["sim.msgs"] = float64(t.msgs)
	m["sim.inflight_peak"] = float64(t.inflightPeak)
	m["sim.alloc_mb"] = float64(t.allocBytes) / (1 << 20)

	appendS := sec(tr.totalNS["causality.append"])
	timed("check.monitor", sec(monitor.NS), monitor.Count > 0)
	timed("causality.append", appendS, monitor.Count > 0)
	timed("check.repair", sec(monitor.NS)-appendS, monitor.Count > 0)
	m["check.graph_nodes"] = float64(t.graphNodes)
	m["check.graph_edges"] = float64(t.graphEdges)
	m["check.live_heap_mb"] = float64(t.liveHeapBytes) / (1 << 20)
	for _, l := range []string{"causality.finalize", "causality.build", "check.abc", "check.ratio", "workload.verdict"} {
		ns, called := tr.totalNS[l]
		timed(l, sec(ns), called)
	}

	var shards, busy, untracedJob []float64
	for _, s := range samples {
		shards = append(shards, float64(s.shards))
		busy = append(busy, s.busy)
		untracedJob = append(untracedJob, s.elapsedSum)
	}
	m["sim.shards_used"] = median(shards)
	m["runner.busy_frac"] = median(busy)
	m["trace.job_s"] = job
	if u := median(untracedJob); u > 0 {
		m["trace.overhead_frac"] = job/u - 1
	}
	var covered int64
	for _, l := range jobLayers {
		covered += tr.totalNS[l]
	}
	m["trace.coverage_frac"] = share(sec(covered))

	for k, v := range lad {
		m[k] = v
	}
	if self > 0 {
		m["ladder.delay_share_frac"] = lad["ladder.delay_ns"] * float64(t.msgs) / (1e9 * self)
	}
	return m
}
