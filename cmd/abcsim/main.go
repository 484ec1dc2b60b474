// Command abcsim runs ABC-model workloads from the unified registry
// (internal/workload) and inspects their execution graphs. Any registered
// workload — clock synchronization, lock-step rounds, synchronous
// consensus, the Ω failure detector, VLSI clock generation, Θ-Model and
// ParSync embeddings, the Section 6 variants, the paper's figure traces,
// plain broadcast — is selected with -workload, parameterized with
// -param name=value, swept over whole parameter axes with -sweep
// name=v1,v2,..., and checked for ABC admissibility, exact critical ratio,
// and its domain-level verdict (theorem monitors, protocol invariants).
// -list prints the catalogue with each workload's parameter space.
//
// With -runs R > 1 (or any -sweep) it becomes a fleet sweep: jobs are
// sharded across -workers goroutines by internal/runner, one summary line
// is printed per job (in grid order, regardless of scheduling), and an
// aggregate footer reports admissible/inadmissible counts, total events,
// truncations, domain-check failures, and the maximum critical ratio.
// Per-seed traces are bit-identical to serial single runs of the same
// seeds; -workers only changes wall-clock time.
//
// With -watch the admissibility check runs online: the incremental engine
// (check.Incremental) grows the constraint system with every simulated
// event, the run stops at the first violating event, and the report names
// the exact event index at which admissibility first failed.
//
// With -json the reports become NDJSON on stdout: one record per job
// (kind "job": the full parameter point, seed, verdict, critical ratio,
// stream digest, events/sec) and one aggregate footer (kind "fleet"),
// machine-readable for sweep post-processing:
//
//	abcsim -workload broadcast -param n=1000 -runs 10 -json | jq -r .eventsPerSec
//
// Usage:
//
//	abcsim -list
//	abcsim -workload clocksync -param n=4 -param f=1 -param xi=2 -param target=10 \
//	       -seed 1 -trace trace.json -dot graph.dot
//	abcsim -workload clocksync -param n=7 -param f=2 -runs 100 -workers 8
//	abcsim -workload broadcast -param n=3 -param xi=3/2 -param max=3 -watch
//	abcsim -workload scenario -param fig=fig3 -sweep xi=3/2,2,3
//	abcsim -workload vlsi -sweep scale=1,1/3 -param faults=crash/1
//
// Simulation workloads declare a topology axis (sim.ParseTopology syntax:
// full, ring, torus[/RxC], regular/D, scalefree/M, islands/K; the sparse
// engine makes N ≈ 10^5 rings/tori tractable):
//
//	abcsim -workload broadcast -param n=10000 -param topology=torus
//	abcsim -workload vlsi -param n=9 -param maxevents=3000 -sweep topology=full,torus,regular/4 -runs 5
//
// Simulation workloads also declare a fault axis (workload.FaultParams):
// a spec of '+'-joined clauses — crash/K[@S] (K processes crash after S
// steps), byz/K[@B] (K live Byzantine adversaries with step budget B,
// where the workload declares an adversary family), script/K[@T] (K
// scripted-noise processes) — claiming process IDs n-1 downward. Specs
// sweep like any parameter, giving crash-at-step and Byzantine-budget
// grids:
//
//	abcsim -workload consensus -param algo=floodset -sweep faults=none,crash/1@0,crash/1@2 -runs 3
//	abcsim -workload consensus -param n=5 -sweep algo=eig,phaseking -param faults=byz/1
//	abcsim -workload omega -param topology=ring -param faults=crash/1@0
//	abcsim -workload clocksync -sweep faults=byz/1@20,byz/1@60 -runs 5
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/causality"
	"repro/internal/runner"
	"repro/internal/workload"

	_ "repro/internal/workload/all"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// Usage already printed by the FlagSet; -h is not a failure.
	default:
		fmt.Fprintln(os.Stderr, "abcsim:", err)
		os.Exit(1)
	}
}

// maxJobs bounds the jobs one invocation expands to: -runs times the
// product of the -sweep axis lengths.
const maxJobs = 1 << 20

// repeatFlag collects every occurrence of a repeatable flag.
type repeatFlag []string

func (r *repeatFlag) String() string     { return strings.Join(*r, " ") }
func (r *repeatFlag) Set(v string) error { *r = append(*r, v); return nil }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("abcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var params, sweeps repeatFlag
	var (
		name     = fs.String("workload", "clocksync", "registered workload to run (see -list)")
		list     = fs.Bool("list", false, "print the registered workloads with their parameter spaces and exit")
		seed     = fs.Int64("seed", 1, "random seed (first seed of a -runs sweep)")
		runs     = fs.Int("runs", 1, "number of seeds to run, starting at -seed")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "fleet width for sweeps (per-seed results are identical for any width)")
		jsonOut  = fs.Bool("json", false, "emit NDJSON records (one per job plus an aggregate footer) instead of the text report")
		watch    = fs.Bool("watch", false, "monitor ABC(Ξ) incrementally during the run and stop at the first violating event")
		traceOut = fs.String("trace", "", "write trace JSON to this file (single run only)")
		dotOut   = fs.String("dot", "", "write execution graph DOT to this file (single run only)")
	)
	fs.Var(&params, "param", "workload parameter override name=value (repeatable)")
	fs.Var(&sweeps, "sweep", "sweep axis name=v1,v2,... (repeatable; axes expand row-major, seeds innermost)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		printList(stdout)
		return nil
	}

	src, ok := workload.Lookup(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (registered: %s)", *name, strings.Join(workload.Names(), ", "))
	}

	overrides := make(map[string]string)
	for _, kv := range params {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("-param %q: want name=value", kv)
		}
		overrides[k] = v
	}
	base, err := src.Resolve(overrides)
	if err != nil {
		return err
	}

	var axes []workload.Axis
	for _, kv := range sweeps {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || v == "" {
			return fmt.Errorf("-sweep %q: want name=v1,v2,...", kv)
		}
		axes = append(axes, workload.Axis{Param: k, Values: strings.Split(v, ",")})
	}

	if *runs < 1 {
		return fmt.Errorf("-runs %d, need at least 1", *runs)
	}
	if *seed > math.MaxInt64-int64(*runs-1) {
		return fmt.Errorf("-seed %d with -runs %d: the last seed overflows int64", *seed, *runs)
	}
	// Every job and its result stay in memory until the report, so the
	// batch size is checked before anything is allocated for it.
	count := *runs
	for _, ax := range axes {
		if count > maxJobs/len(ax.Values) {
			count = maxJobs + 1 // stop before the product can overflow
			break
		}
		count *= len(ax.Values)
	}
	if count > maxJobs {
		return fmt.Errorf("-runs %d times the -sweep grid exceeds %d jobs", *runs, maxJobs)
	}
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}
	single := *runs == 1 && len(axes) == 0
	if !single && (*traceOut != "" || *dotOut != "") {
		return fmt.Errorf("-trace/-dot exports require a single run (-runs 1, no -sweep)")
	}
	if *jsonOut && (*traceOut != "" || *dotOut != "") {
		return fmt.Errorf("-json does not combine with -trace/-dot exports")
	}

	opt := workload.JobOptions{Watch: *watch, Ratio: true}
	jobs, points, err := src.Grid(base, axes, runner.Seeds(*seed, *runs), opt)
	if err != nil {
		return err
	}

	start := time.Now()
	results, stats, err := runner.Run(context.Background(), jobs, *workers)
	wall := time.Since(start)
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}

	if *jsonOut {
		return reportJSON(stdout, *name, jobs, points, results, stats, *workers, wall)
	}
	if single {
		return reportSingle(stdout, *name, base, *seed, results[0], jobs[0].Post != nil, *traceOut, *dotOut)
	}

	for _, r := range results {
		extra := ""
		if r.RatioFound {
			extra = fmt.Sprintf(" ratio=%v", r.Ratio)
		}
		if r.FirstViolation >= 0 {
			extra += fmt.Sprintf(" first-violation=%d", r.FirstViolation)
		}
		if r.Sim != nil && r.Sim.Truncated {
			extra += " truncated"
		}
		if r.CheckErr != nil {
			extra += " domain-check-FAILED"
		}
		abc := ""
		if r.Verdict != nil {
			status := "admissible"
			if !r.Verdict.Admissible {
				status = "INADMISSIBLE"
			}
			abc = fmt.Sprintf(", ABC(Ξ=%v) %s", r.Xi, status)
		}
		fmt.Fprintf(stdout, "%s: %d events, %d messages%s%s\n",
			r.Key, r.Trace.TotalEvents(), r.Trace.TotalMsgs(), abc, extra)
	}
	fmt.Fprintf(stdout, "fleet: %d runs on %d workers: %d admissible, %d inadmissible, %d truncated, %d events total\n",
		stats.Jobs, *workers, stats.Admissible, stats.Inadmissible, stats.Truncated, stats.Events)
	if stats.CheckFailed > 0 {
		fmt.Fprintf(stdout, "domain checks: %d of %d jobs FAILED\n", stats.CheckFailed, stats.Jobs)
	}
	if stats.MaxRatioFound {
		fmt.Fprintf(stdout, "max critical ratio: %v (at %s)\n", stats.MaxRatio, stats.MaxRatioKey)
	} else {
		fmt.Fprintln(stdout, "max critical ratio: none (all runs admissible for every Ξ > 1)")
	}
	return nil
}

// jobRecord is the per-job NDJSON line of -json mode.
type jobRecord struct {
	Kind           string            `json:"kind"` // "job"
	Workload       string            `json:"workload"`
	Key            string            `json:"key"`
	Params         map[string]string `json:"params"`
	Seed           int64             `json:"seed"`
	Xi             string            `json:"xi,omitempty"`
	Verdict        string            `json:"verdict,omitempty"` // admissible | inadmissible
	Ratio          string            `json:"ratio,omitempty"`
	FirstViolation int               `json:"firstViolation"`
	Truncated      bool              `json:"truncated"`
	DomainCheck    string            `json:"domainCheck,omitempty"` // ok | failed: ...
	Events         int               `json:"events"`
	Msgs           int               `json:"msgs"`
	StreamHash     string            `json:"streamHash"`
	ElapsedSec     float64           `json:"elapsedSec"`
	EventsPerSec   float64           `json:"eventsPerSec"`
}

// fleetRecord is the aggregate NDJSON footer of -json mode.
type fleetRecord struct {
	Kind         string  `json:"kind"` // "fleet"
	Workload     string  `json:"workload"`
	Runs         int     `json:"runs"`
	Workers      int     `json:"workers"`
	Admissible   int     `json:"admissible"`
	Inadmissible int     `json:"inadmissible"`
	Truncated    int     `json:"truncated"`
	CheckFailed  int     `json:"checkFailed"`
	Events       int     `json:"events"`
	Msgs         int     `json:"msgs"`
	MaxRatio     string  `json:"maxRatio,omitempty"`
	MaxRatioKey  string  `json:"maxRatioKey,omitempty"`
	WallSec      float64 `json:"wallSec"`
}

// reportJSON renders the batch as NDJSON: one "job" record per result in
// grid order, then one "fleet" footer. Each job's parameter point and seed
// are the ones Source.Grid built it from.
func reportJSON(stdout io.Writer, name string, jobs []runner.Job, points []workload.Point, results []runner.JobResult, stats runner.Stats, workers int, wall time.Duration) error {
	enc := json.NewEncoder(stdout)
	for _, r := range results {
		rec := jobRecord{
			Kind:           "job",
			Workload:       name,
			Key:            r.Key,
			Params:         points[r.Index].Values.Map(),
			Seed:           points[r.Index].Seed,
			FirstViolation: r.FirstViolation,
		}
		if r.Xi.Sign() > 0 {
			rec.Xi = r.Xi.String()
		}
		if r.Verdict != nil {
			rec.Verdict = "admissible"
			if !r.Verdict.Admissible {
				rec.Verdict = "inadmissible"
			}
		}
		if r.RatioFound {
			rec.Ratio = r.Ratio.String()
		}
		if r.CheckErr != nil {
			rec.DomainCheck = "failed: " + r.CheckErr.Error()
		} else if jobs[r.Index].Post != nil {
			rec.DomainCheck = "ok"
		}
		if r.Trace != nil {
			rec.Events = r.Trace.TotalEvents()
			rec.Msgs = r.Trace.TotalMsgs()
			rec.StreamHash = fmt.Sprintf("%016x", r.Trace.StreamHash())
		}
		if r.Sim != nil {
			rec.Truncated = r.Sim.Truncated
		}
		rec.ElapsedSec = r.Elapsed.Seconds()
		if s := r.Elapsed.Seconds(); s > 0 && rec.Events > 0 {
			rec.EventsPerSec = float64(rec.Events) / s
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	footer := fleetRecord{
		Kind:         "fleet",
		Workload:     name,
		Runs:         stats.Jobs,
		Workers:      min(workers, len(results)), // the pool never exceeds the batch
		Admissible:   stats.Admissible,
		Inadmissible: stats.Inadmissible,
		Truncated:    stats.Truncated,
		CheckFailed:  stats.CheckFailed,
		Events:       stats.Events,
		Msgs:         stats.Msgs,
		WallSec:      wall.Seconds(),
	}
	if stats.MaxRatioFound {
		footer.MaxRatio = stats.MaxRatio.String()
		footer.MaxRatioKey = stats.MaxRatioKey
	}
	return enc.Encode(footer)
}

// printList renders the registry catalogue: one block per workload with
// its parameter space.
func printList(stdout io.Writer) {
	fmt.Fprintln(stdout, "registered workloads:")
	for _, name := range workload.Names() {
		s, _ := workload.Lookup(name)
		fmt.Fprintf(stdout, "\n%s — %s\n", s.Name, s.Doc)
		for _, p := range s.Params {
			def := p.Default
			if def == "" {
				def = `""`
			}
			fmt.Fprintf(stdout, "  -param %-12s %-9s default %-8s %s\n", p.Name, p.Kind.String(), def, p.Doc)
		}
	}
}

// reportSingle preserves the original single-run report format.
// hasVerdict reports whether the job carried a domain verdict at all;
// without one, no verdict line is printed rather than a vacuous "ok".
func reportSingle(stdout io.Writer, name string, v workload.Values, seed int64, r runner.JobResult, hasVerdict bool, traceOut, dotOut string) error {
	tr := r.Trace
	header := "workload=" + name
	if v.Has("n") {
		header += fmt.Sprintf(" n=%d", v.Int("n"))
	}
	if !tr.Complete() && r.Graph == nil {
		// Bounded retention: the complete execution graph cannot be
		// rebuilt, so report counters and the stream digest instead.
		if traceOut != "" || dotOut != "" {
			return fmt.Errorf("-trace/-dot exports need the complete trace; run with trace=full")
		}
		fmt.Fprintf(stdout, "%s seed=%d: %d events, %d messages (trace=%v retention), stream hash %016x\n",
			header, seed, tr.TotalEvents(), tr.TotalMsgs(), tr.Retention(), tr.StreamHash())
		if r.Sim != nil && r.Sim.Truncated {
			fmt.Fprintln(stdout, "note: run truncated by event/time budget")
		}
		if r.CheckErr != nil {
			fmt.Fprintf(stdout, "domain verdict: FAILED: %v\n", r.CheckErr)
		} else if hasVerdict {
			fmt.Fprintln(stdout, "domain verdict: ok")
		}
		return nil
	}
	g := r.Graph
	if g == nil {
		g = causality.Build(tr, causality.Options{})
	}
	fmt.Fprintf(stdout, "%s seed=%d: %d events, %d messages, %d graph nodes\n",
		header, seed, tr.TotalEvents(), tr.TotalMsgs(), g.NumNodes())
	if r.Sim != nil && r.Sim.Truncated {
		fmt.Fprintln(stdout, "note: run truncated by event/time budget")
	}

	if r.Verdict != nil {
		fmt.Fprintf(stdout, "ABC(Ξ=%v) admissible: %v\n", r.Xi, r.Verdict.Admissible)
		if !r.Verdict.Admissible && r.Verdict.Witness != nil {
			fmt.Fprintf(stdout, "violating relevant cycle (ratio %v): %v\n",
				r.Verdict.WitnessClass.Ratio(), *r.Verdict.Witness)
		}
	}
	if r.FirstViolation >= 0 {
		if ev, ok := tr.EventByPos(r.FirstViolation); ok {
			fmt.Fprintf(stdout, "admissibility first fails at event %d (p%d/%d, t=%v); run stopped there\n",
				r.FirstViolation, ev.Proc, ev.Index, ev.Time)
		} else {
			fmt.Fprintf(stdout, "admissibility first fails at event %d; run stopped there\n", r.FirstViolation)
		}
	}
	if r.RatioFound {
		fmt.Fprintf(stdout, "critical ratio: %v (admissible for every Ξ > %v)\n", r.Ratio, r.Ratio)
	} else {
		fmt.Fprintln(stdout, "critical ratio: none (admissible for every Ξ > 1)")
	}
	if r.CheckErr != nil {
		fmt.Fprintf(stdout, "domain verdict: FAILED: %v\n", r.CheckErr)
	} else if hasVerdict {
		fmt.Fprintln(stdout, "domain verdict: ok")
	}

	if (traceOut != "" || dotOut != "") && !tr.Complete() {
		return fmt.Errorf("-trace/-dot exports need the complete trace; run with trace=full")
	}
	if traceOut != "" {
		w, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer w.Close()
		if err := tr.WriteJSON(w); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", traceOut)
	}
	if dotOut != "" {
		w, err := os.Create(dotOut)
		if err != nil {
			return err
		}
		defer w.Close()
		if err := writeDOT(w, g); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "DOT written to %s\n", dotOut)
	}
	return nil
}

// writeDOT renders the execution graph in Graphviz DOT: one node per
// event, labelled with its process and per-process index, and one edge per
// graph edge in edge order, local edges dashed.
func writeDOT(w io.Writer, g *causality.Graph) error {
	b := bufio.NewWriter(w)
	b.WriteString("digraph execution {\n")
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprintf(b, "  n%d [label=%q];\n", v, g.Node(causality.NodeID(v)).String())
	}
	for _, e := range g.Edges() {
		attr := ""
		if e.Kind == causality.Local {
			attr = " [style=dashed]"
		}
		fmt.Fprintf(b, "  n%d -> n%d%s;\n", e.From, e.To, attr)
	}
	b.WriteString("}\n")
	return b.Flush()
}
