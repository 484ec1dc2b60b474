// Edge values of every integer parameter: each registered source, with one
// Int parameter set to -1, 0, 1, 2 or 3 and the rest at their defaults,
// must either be rejected with an error (at resolution, job construction
// or in the engine) or run — never panic.
package all_test

import (
	"fmt"
	"strconv"
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
				if err := runEdgeValue(src, p.Name, strconv.Itoa(v)); err != nil {
					t.Errorf("%s %s=%d: %v", name, p.Name, v, err)
				}
			}
		}
	}
}

// runEdgeValue resolves src with one override, builds its seed-1 jobs and
// runs each simulated job's Config in the calling goroutine. Errors count
// as a clean rejection; only a panic is reported.
func runEdgeValue(src workload.Source, param, value string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	v, rerr := src.Resolve(map[string]string{param: value})
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
