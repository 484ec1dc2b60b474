// Command benchjson converts `go test -bench` text output on stdin into a
// JSON document on stdout, so per-PR benchmark numbers can be recorded in
// the repository (`make bench-json` emits BENCH_pr3.json) and diffed as
// the performance trajectory instead of living only in commit messages.
//
// Each benchmark result line
//
//	BenchmarkChecker/nodes=2568-8   50   515563 ns/op   1150160 B/op   31 allocs/op
//
// becomes an object with the name (GOMAXPROCS suffix stripped), iteration
// count, and every reported metric — including custom b.ReportMetric units
// such as "checks/op" or "events/run". Context lines (goos, goarch, pkg,
// cpu) are captured into the header, alongside host metadata (go version,
// core count, GOMAXPROCS) of the converting machine — required context
// for judging parallel-engine numbers recorded in BENCH_*.json.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Host records the machine and toolchain the benchmarks ran on — the
// context needed to judge parallel numbers (a fleet-speedup figure is
// meaningless without knowing how many cores were actually available).
type Host struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Report is the emitted document.
type Report struct {
	Host       Host              `json:"host"`
	Context    map[string]string `json:"context"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	report := Report{
		Host: Host{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Context: map[string]string{},
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBenchLine(line); ok {
			report.Benchmarks = append(report.Benchmarks, b)
			continue
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				report.Context[key] = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// parseBenchLine parses one "BenchmarkX-N  iter  value unit ..." line.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the trailing -GOMAXPROCS suffix, keeping sub-benchmark paths.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}
