// Command bench is the cold-start benchmark of abcsim: it measures what a
// user of the simulator pays end to end, and then where that time goes,
// layer by layer.
//
// Run it from the repository root; bench/run.sh builds it with its build
// cache inside the checkout:
//
//	bash bench/run.sh                       # all workloads + traced pass, as a table
//	bash bench/run.sh -out report.json      # ... and the full report as JSON
//	bash bench/run.sh --workload ring --seed 2 --seconds 20 --trace 0
//	bash bench/run.sh -compare base.json head.json
//
// or, from this directory, go run . -root .. with the same flags. The
// benchmark is a module of its own (bench/go.mod, requiring the repository
// module by a relative replace), so go run ./bench and go test ./... from
// the repository root do not reach it; its tests run with
// cd bench && go test ./...
//
// # End-to-end pass
//
// The benchmark builds ./cmd/abcsim once (build time is not measured).
// Every sample then runs each of the workload's abcsim -json invocations
// as a fresh child process at GOMAXPROCS=min(2, nproc), reads its NDJSON
// records and its rusage, and checks its output. Workloads take samples
// in round-robin order until each has used its time (-seconds, default
// run_seconds from BENCHMARK.json) and has at least three. Every
// end-to-end metric is computed per sample and reported as the median,
// quartiles, range and sample count:
//
//   - setup_s: the time from exec until abcsim's footer record arrives,
//     minus the footer's wallSec, summed over the sample's invocations:
//     exec, runtime and registry init, parameter resolution, job and
//     topology construction, and record encoding (not process exit).
//   - wall_s: the footer's wallSec (the fleet run), summed.
//   - events_per_s, jobs_per_s: receive events and jobs over wall_s.
//   - job_latency_s.p50, job_latency_s.p99: percentiles of the per-job
//     elapsedSec.
//   - peak_rss_mb: the largest rusage Maxrss of the sample's children.
//
// jobs_per_s and the latency percentiles are summarized and compared only
// on the multi-job catalogue; on a single job they restate wall_s, and
// only the single-workload result line prints them there.
//
// Each metric's regression bound is in BENCHMARK.json; setup_s also has a
// 20 ms floor (setupFloorS) below which -compare resolves no change. Jobs
// failing a check count as failed against those attempted (failed_frac,
// bound 0).
//
// # Output checks
//
// A sample fails when a child exits non-zero or prints an unreadable or
// incomplete record, a domain verdict fails, a watched run is not
// admissible throughout (firstViolation -1), a fault-free broadcast's
// event and message counts differ from the seed-independent closed form
// n·(1 + target·(d+1)), or its stream digest differs from the other
// samples'. At seed 1 the digests must equal the values pinned in the
// workload definitions; the catalogue's digest is the fold of every job
// digest in record order. The traced pass must reproduce every job's
// untraced outcome (verdict, ratio, first violation, truncation, domain
// check and digest), which shows it runs the same program. Any failure
// makes the benchmark exit non-zero.
//
// # Traced pass
//
// With -trace 1, after the samples the benchmark rebuilds each workload's
// jobs in process, as abcsim does (workload.Source.Jobs with Ratio), and
// calls every layer's public function itself, serially, with a span around
// each call; per-event layers (Process.Step through a Spawn wrapper, the
// watcher's Monitor, Until predicates) are aggregated as count and total on
// their sim.run span. The timed run keeps the workload's own Sink; the
// in-flight peak and promoted event times come from an untimed re-run with
// a counting Sink. Spans stay in memory and are written into the report.
// The per-layer metrics (see layerUnits) include sim.engine_self_s (engine
// time outside steps, monitor and Until: queue, delay draw, fan-out,
// retention and digest), the incremental checker's monitor, graph-append
// (a Builder.Append over the re-run's complete trace) and repair times,
// the batch graph build, ABC check, ratio search
// and domain verdict, runner.busy_frac and trace.overhead_frac from the
// untraced records, and a ladder of microbenchmarks (inline and promoted
// rat addition, one uniform delay draw) whose delay cost times the message
// count is reported as a computed share of engine self time.
//
// # Workloads
//
// ring is the engine alone on a 5×10^4-process ring without retention, the
// only workload abcsim runs on two shards; watch-ring watches the same
// execution with window retention, where checker memory grows with the
// run; watch-dense is a watched 64-process full mesh with deep causal
// chains, where the incremental checker dominates; catalogue runs every
// registered source (1820 small jobs with full retention, batch checks,
// ratio search and domain verdicts on two workers).
//
// # Warm versus cold
//
// The BENCH_*.json files time a warm, reused sim.Engine whose warm-up run
// is excluded. A fresh abcsim process pays far more: on a 2-CPU host the
// 2×10^5 ring peaks near 1.4 GB resident under the automatic two-shard plan
// and near 0.8 GB on the serial engine, in about the same wall time.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minSamples is the fewest samples a workload takes, whatever its time.
const minSamples = 3

// keepJobs is how many jobs per workload keep their spans in the report.
const keepJobs = 32

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root    = fs.String("root", ".", "repository root: holds BENCHMARK.json and cmd/abcsim")
		name    = fs.String("workload", "all", "workload to run, or all (interleaved, printed as a table)")
		seed    = fs.Int64("seed", 1, "first seed of every abcsim invocation")
		seconds = fs.Float64("seconds", 0, "sampling time per workload (0 = run_seconds from BENCHMARK.json)")
		trace   = fs.Int("trace", 1, "1 = also run the traced pass and report per-layer metrics")
		out     = fs.String("out", "", "write the full report as JSON to this file")
		compare = fs.Bool("compare", false, "compare two reports: -compare base.json head.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		base, err := readReport(fs.Arg(0))
		if err == nil {
			var head *report
			if head, err = readReport(fs.Arg(1)); err == nil {
				compareReports(stdout, base, head)
				return 0
			}
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	defs := workloadDefs
	sp, err := loadSpec(*root, defs)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *name != "all" {
		d, ok := findWorkload(defs, *name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		defs = []workloadDef{d}
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	abcsim := filepath.Join(*root, ".bench_build", "abcsim")
	if err := buildAbcsim(*root, abcsim); err != nil {
		fmt.Fprintln(stderr, "bench: building abcsim:", err)
		return 1
	}
	rep := measure(sp, defs, abcsim, *seed, *seconds, *trace == 1, stderr)

	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *name == "all" {
		printTable(stdout, rep)
	} else {
		printTable(stderr, rep)
		if err := printResult(stdout, sp, rep, *trace == 1); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !rep.Correct {
		fmt.Fprintln(stderr, "bench: output checks failed")
		return 1
	}
	return 0
}

// buildAbcsim compiles ./cmd/abcsim under root into out.
func buildAbcsim(root, out string) error {
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(out)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs, "./cmd/abcsim")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%v: %s", err, strings.TrimSpace(string(b)))
	}
	return nil
}

// measure runs the end-to-end samples of every workload, then (with
// trace) each workload's traced pass, and applies the output checks.
// Progress goes to logw.
func measure(sp spec, defs []workloadDef, abcsim string, seed int64, seconds float64, trace bool, logw io.Writer) *report {
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	rep := &report{Host: hostInfo(procs), Seed: seed, Seconds: seconds, Correct: true}
	rep.Host.CalibStartS = calibrate()

	samples := make([][]sample, len(defs))
	used := make([]time.Duration, len(defs))
	budget := time.Duration(seconds * float64(time.Second))
	for more := true; more; {
		more = false
		for i, d := range defs {
			n := len(samples[i])
			// Stop once the next sample, estimated by the mean so far,
			// would overrun the workload's time.
			if n >= minSamples && used[i]+used[i]/time.Duration(n) > budget {
				continue
			}
			s := runSample(abcsim, procs, d, seed)
			samples[i] = append(samples[i], s)
			used[i] += s.dur
			more = true
			fmt.Fprintf(logw, "bench: %s sample %d: %.2fs, %d of %d jobs failed\n", d.name, n+1, s.dur.Seconds(), s.Failed, s.Attempted)
		}
	}
	rep.Host.CalibEndS = calibrate()

	var lad map[string]float64
	if trace {
		lad = ladder()
	}
	for i, d := range defs {
		wr := workloadReport{Name: d.name, Invocations: d.invs, Samples: samples[i]}
		gateSamples(&wr, d, seed)
		if trace {
			tr := newTracer(keepJobs)
			t := tracePass(d, seed, wr.outcomes, tr)
			wr.Attempted += t.Attempted
			wr.Failed += t.Failed
			wr.Failures = append(wr.Failures, t.Failures...)
			wr.Layers = layerMetrics(tr, t, samples[i], lad)
			wr.Spans, wr.Note = tr.spans, d.note
			fmt.Fprintf(logw, "bench: %s traced pass: %.2fs of job time\n", d.name, wr.Layers["trace.job_s"])
		}
		wr.Metrics = summarize(sp, wr.Samples, d.jobs() > 1)
		if wr.Failed > 0 || len(wr.Failures) > 0 {
			rep.Correct = false
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep
}

// gateSamples totals the samples' jobs and failures, takes the workload's
// digest and per-job outcomes from its first sample without failures, and
// fails every other such sample whose digest differs — or, at seed 1,
// every sample when the digest differs from the pinned value.
func gateSamples(wr *workloadReport, d workloadDef, seed int64) {
	for i, s := range wr.Samples {
		wr.Attempted += s.Attempted
		wr.Failed += s.Failed
		wr.Failures = append(wr.Failures, s.Failures...)
		switch {
		case s.Failed > 0:
		case wr.Digest == "":
			wr.Digest, wr.outcomes = s.Digest, s.outcomes
		case s.Digest != wr.Digest:
			wr.Failed += s.Attempted
			wr.Failures = append(wr.Failures, fmt.Sprintf("sample %d digest %s, earlier samples %s", i+1, s.Digest, wr.Digest))
		}
	}
	if seed == 1 && d.pinned != "" && wr.Digest != d.pinned {
		wr.Failed = wr.Attempted
		wr.Failures = append(wr.Failures, fmt.Sprintf("digest %s at seed 1, pinned %s", wr.Digest, d.pinned))
	}
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// hostInfo records the toolchain and machine. MemTotal and the CPU model
// come from /proc and stay empty where it does not exist.
func hostInfo(procs int) host {
	h := host{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), ChildGOMAXPROCS: procs}
	h.CPUModel = procField("/proc/cpuinfo", "model name")
	if kb, err := strconv.Atoi(strings.TrimSuffix(procField("/proc/meminfo", "MemTotal"), " kB")); err == nil {
		h.MemTotalMB = kb / 1024
	}
	return h
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop (a xorshift chain, no memory
// traffic) and returns the median of three timings in seconds.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 50_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts)
}
