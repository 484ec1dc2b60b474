package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// e2eUnits are the end-to-end metrics a sample computes, with their units.
var e2eUnits = map[string]string{
	"setup_s":           "s",
	"wall_s":            "s",
	"events_per_s":      "1/s",
	"jobs_per_s":        "1/s",
	"job_latency_s.p50": "s",
	"job_latency_s.p99": "s",
	"peak_rss_mb":       "MiB",
}

// fleetOnly are the end-to-end metrics that say something of their own
// only on a workload running many jobs. On a single-job workload
// jobs_per_s is 1/wall_s and both percentiles are the one job's time, so
// they are left out of its summaries and comparisons; the single-workload
// result line still prints them, because it must name every metric.
var fleetOnly = map[string]bool{"jobs_per_s": true, "job_latency_s.p50": true, "job_latency_s.p99": true}

// outcome is what abcsim -json reports one job computed. The traced pass
// must reproduce it job for job, which ties its copy of runner's job
// execution to the program abcsim runs.
type outcome struct {
	Verdict        string `json:"verdict"`
	Ratio          string `json:"ratio"`
	FirstViolation int    `json:"firstViolation"`
	Truncated      bool   `json:"truncated"`
	DomainCheck    string `json:"domainCheck"`
	StreamHash     string `json:"streamHash"`
}

// record is one abcsim -json job line. Shards is 0 when abcsim stops
// reporting it; it is read as serial.
type record struct {
	outcome
	Kind       string            `json:"kind"`
	Workload   string            `json:"workload"`
	Params     map[string]string `json:"params"`
	Events     int               `json:"events"`
	Msgs       int               `json:"msgs"`
	Shards     int               `json:"shards"`
	ElapsedSec float64           `json:"elapsedSec"`
}

// footer is the "fleet" line abcsim -json ends with.
type footer struct {
	Kind    string  `json:"kind"`
	Runs    int     `json:"runs"`
	Workers int     `json:"workers"`
	Events  int     `json:"events"`
	WallSec float64 `json:"wallSec"`
}

// sample is one execution of a workload: every invocation, each in a
// fresh abcsim process.
type sample struct {
	Metrics   map[string]float64 `json:"metrics"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`

	// Inputs of the per-layer metrics taken from untraced runs.
	elapsedSum float64 // Σ per-job elapsedSec
	busy       float64 // runner.busy_frac
	shards     int     // largest shard count any job ran with
	dur        time.Duration
	outcomes   []outcome // per job, in record order
}

// childTimeout bounds one abcsim process, so a hung child cannot hold a
// run past its time limit; the context kills it and Wait reaps it.
const childTimeout = 150 * time.Second

// runSample executes every invocation of w for seed and computes the
// sample's end-to-end metrics and its output checks.
func runSample(abcsim string, procs int, w workloadDef, seed int64) sample {
	start := time.Now()
	s := sample{Metrics: map[string]float64{}}
	var setup, wall, busyNum, busyDen float64
	var events, jobs int
	var rssKB int64
	var hashes []string
	var latencies []float64
	for _, inv := range w.invs {
		recs, foot, footerAt, maxrss, err := execInvocation(abcsim, procs, inv.args(seed))
		if err != nil {
			s.Attempted += inv.Runs
			s.Failed += inv.Runs
			s.Failures = append(s.Failures, fmt.Sprintf("%s: %v", inv.Source, err))
			continue
		}
		setup += footerAt - foot.WallSec
		wall += foot.WallSec
		events += foot.Events
		jobs += foot.Runs
		busyDen += foot.WallSec * float64(foot.Workers)
		rssKB = max(rssKB, maxrss)
		for _, r := range recs {
			s.Attempted++
			if msg := checkJob(inv, r); msg != "" {
				s.Failed++
				s.Failures = append(s.Failures, fmt.Sprintf("%s seed %d: %s", inv.Source, seed, msg))
			}
			latencies = append(latencies, r.ElapsedSec)
			busyNum += r.ElapsedSec
			hashes = append(hashes, r.StreamHash)
			s.outcomes = append(s.outcomes, r.outcome)
			s.shards = max(s.shards, r.Shards, 1)
		}
	}
	s.Digest = foldDigests(hashes)
	s.elapsedSum = busyNum
	if busyDen > 0 {
		s.busy = busyNum / busyDen
	}
	if wall > 0 {
		s.Metrics["setup_s"] = setup
		s.Metrics["wall_s"] = wall
		s.Metrics["events_per_s"] = float64(events) / wall
		s.Metrics["jobs_per_s"] = float64(jobs) / wall
		s.Metrics["job_latency_s.p50"] = percentile(latencies, 0.50)
		s.Metrics["job_latency_s.p99"] = percentile(latencies, 0.99)
		s.Metrics["peak_rss_mb"] = float64(rssKB) / 1024
	}
	s.dur = time.Since(start)
	return s
}

// execInvocation runs one abcsim child with GOMAXPROCS=procs and returns
// its parsed job records and footer, the seconds from exec until the
// footer arrived, and its peak resident set in KiB. A non-zero exit, an
// unparsable or missing record, or a footer that disagrees with the job
// count is an error.
func execInvocation(abcsim string, procs int, args []string) ([]record, footer, float64, int64, error) {
	var foot footer
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, abcsim, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, foot, 0, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, foot, 0, 0, err
	}
	// Lines are timed as they arrive: the footer is abcsim's last write,
	// so its arrival ends the set-up-and-run interval before process exit.
	var lines [][]byte
	var footerAt float64
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
		footerAt = time.Since(start).Seconds()
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, foot, 0, 0, fmt.Errorf("abcsim %v: %v: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if scanErr != nil {
		return nil, foot, 0, 0, fmt.Errorf("reading abcsim output: %w", scanErr)
	}
	var maxrss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxrss = ru.Maxrss
	}
	if len(lines) == 0 {
		return nil, foot, 0, 0, fmt.Errorf("abcsim printed nothing")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &foot); err != nil || foot.Kind != "fleet" {
		return nil, foot, 0, 0, fmt.Errorf("output does not end with a fleet footer (%v)", err)
	}
	recs := make([]record, len(lines)-1)
	for i, line := range lines[:len(lines)-1] {
		if err := json.Unmarshal(line, &recs[i]); err != nil || recs[i].Kind != "job" {
			return nil, foot, 0, 0, fmt.Errorf("record %d is not a job record (%v)", i, err)
		}
	}
	if foot.Runs != len(recs) || foot.WallSec <= 0 {
		return nil, foot, 0, 0, fmt.Errorf("footer reports %d runs in %vs, output has %d job records", foot.Runs, foot.WallSec, len(recs))
	}
	return recs, foot, footerAt, maxrss, nil
}

// checkJob returns why one job record is wrong, or "" when it passes:
// the simulation must finish within its budget, a domain verdict must
// hold, a watched run must stay admissible throughout, and a fault-free
// broadcast must produce exactly its closed-form event and message count.
func checkJob(inv invocation, r record) string {
	switch {
	case r.Truncated:
		return "run truncated by its event budget"
	case r.DomainCheck != "" && r.DomainCheck != "ok":
		return "domain check " + r.DomainCheck
	case r.StreamHash == "":
		return "record carries no stream digest"
	case inv.Watch && (r.Verdict != "admissible" || r.FirstViolation != -1):
		return fmt.Sprintf("watched run is %q with first violation %d, want admissible and -1", r.Verdict, r.FirstViolation)
	}
	if want, ok := broadcastTotal(r); ok && (r.Events != want || r.Msgs != want) {
		return fmt.Sprintf("%d events and %d messages, closed form gives %d", r.Events, r.Msgs, want)
	}
	return ""
}

// broadcastTotal is the seed-independent event (and message) count of a
// fault-free broadcast job: n wake-ups plus, for each of target steps per
// process, one message to each of d out-neighbours and one to itself,
// n·(1 + target·(d+1)). Other jobs report ok = false.
func broadcastTotal(r record) (int, bool) {
	p := r.Params
	if r.Workload != "broadcast" || p["faults"] != "none" {
		return 0, false
	}
	n, err1 := strconv.Atoi(p["n"])
	target, err2 := strconv.Atoi(p["target"])
	if err1 != nil || err2 != nil {
		return 0, false
	}
	var d int
	switch p["topology"] {
	case "full":
		d = n - 1
	case "ring":
		d = 1
	default:
		return 0, false
	}
	return n * (1 + target*(d+1)), true
}

// foldDigests combines a sample's per-job stream digests, in record order,
// into one: a single job's digest is itself, several are folded with
// FNV-64a so that any changed, missing or reordered job changes the fold.
func foldDigests(hashes []string) string {
	if len(hashes) == 1 {
		return hashes[0]
	}
	h := fnv.New64a()
	for _, s := range hashes {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// percentile returns the p-quantile of xs by linear interpolation between
// closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
