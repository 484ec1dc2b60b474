// Edge values of the parameter surface: each registered source, with one
// parameter set to an edge value and the rest at their defaults, must
// either be rejected with an error (at resolution, job construction or in
// the engine) or run — never panic, and never allocate for a size the
// engine would refuse anyway.
package all_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestIntParamEdgeValuesDoNotPanic(t *testing.T) {
	for _, name := range workload.Names() {
		src := source(t, name)
		for _, p := range src.Params {
			if p.Kind != workload.Int {
				continue
			}
			for v := -1; v <= 3; v++ {
				if err := runEdgeValues(src, map[string]string{p.Name: strconv.Itoa(v)}); err != nil {
					t.Errorf("%s %s=%d: %v", name, p.Name, v, err)
				}
			}
		}
	}
}

// TestParamEdgeValuesDoNotPanic sweeps the values the small-Int sweep
// above does not reach: Rational parameters at -1, 0, 1/2, 1, 10^12 and
// 10^26/7, Int64 parameters at their extremes, and Int parameters past
// int32 and at ±10^12. Sources with an event budget run at maxevents=2000,
// so a huge target stops early instead of running long.
func TestParamEdgeValuesDoNotPanic(t *testing.T) {
	edges := map[workload.Kind][]string{
		workload.Rational: {"-1", "0", "1/2", "1", "1000000000000", "100000000000000000000000000/7"},
		workload.Int64:    {strconv.FormatInt(math.MinInt64, 10), "-2", "0", strconv.FormatInt(math.MaxInt64, 10)},
		workload.Int:      {"-1000000000000", "1000000000000", "2147483648"},
	}
	for _, name := range workload.Names() {
		src := source(t, name)
		budget := false
		for _, p := range src.Params {
			budget = budget || p.Name == "maxevents"
		}
		for _, p := range src.Params {
			for _, value := range edges[p.Kind] {
				over := map[string]string{p.Name: value}
				if budget && p.Name != "maxevents" {
					over["maxevents"] = "2000"
				}
				if err := runEdgeValues(src, over); err != nil {
					t.Errorf("%s %s=%s: %v", name, p.Name, value, err)
				}
			}
		}
	}
}

// runEdgeValues resolves src with the overrides, builds its seed-1 jobs
// and runs each simulated job's Config in the calling goroutine. Errors
// count as a clean rejection; only a panic is reported.
func runEdgeValues(src workload.Source, over map[string]string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	v, rerr := src.Resolve(over)
	if rerr != nil {
		return nil
	}
	jobs, jerr := src.Jobs(v, []int64{1}, workload.JobOptions{})
	if jerr != nil {
		return nil
	}
	for _, job := range jobs {
		if job.Cfg != nil {
			sim.Run(*job.Cfg)
		}
	}
	return nil
}

// TestPolicyTyposRejectedEverySource pins that every source declaring
// the recovery= and inflight= policies rejects a mistyped value at job
// build under its default fault spec (faults=none), where no recover/
// clause reads the policy.
func TestPolicyTyposRejectedEverySource(t *testing.T) {
	checked := 0
	for _, name := range workload.Names() {
		src := source(t, name)
		for _, p := range src.Params {
			var typo string
			switch p.Name {
			case "recovery":
				typo = "amnesai"
			case "inflight":
				typo = "hodl"
			default:
				continue
			}
			v, err := src.Resolve(map[string]string{p.Name: typo})
			if err != nil {
				t.Fatalf("%s %s=%s: resolve: %v", name, p.Name, typo, err)
			}
			if _, err := src.Jobs(v, []int64{1}, workload.JobOptions{}); err == nil || !strings.Contains(err.Error(), p.Name) {
				t.Errorf("%s %s=%s: err = %v, want a %s error", name, p.Name, typo, err, p.Name)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no source declares recovery= or inflight=")
	}
}
