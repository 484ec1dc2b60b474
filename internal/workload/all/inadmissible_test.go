package all_test

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/rat"
	"repro/internal/workload"
)

// TestInadmissibleBatchRatioSearch pins the verdict, critical ratio and
// witness of two inadmissible broadcast jobs at seed 1. Their critical-ratio
// searches issue many violated Bellman–Ford probes on graphs of 2·10^4 to
// 4·10^4 nodes, so they finish quickly only because a violated probe stops
// at its first predecessor-graph cycle instead of running n+1 passes.
func TestInadmissibleBatchRatioSearch(t *testing.T) {
	cases := []struct {
		name  string
		spec  []string
		ratio rat.Rat
	}{
		{"mesh-64", []string{"broadcast", "n=64", "target=10", "max=10", "xi=3/2"}, rat.FromInt(3)},
		{"ring-2000", []string{"broadcast", "topology=ring", "n=2000", "target=5", "max=10", "xi=3/2"}, rat.FromInt(4)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// The first job is conformanceSeeds[0] = 1.
			jobs := overrideJobs(t, c.spec, workload.JobOptions{Ratio: true})
			r := run(t, jobs[:1], 1)[0]
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Key, r.Err)
			}
			if r.Verdict == nil || r.Verdict.Admissible {
				t.Fatalf("%s: verdict %+v, want inadmissible", r.Key, r.Verdict)
			}
			if !r.RatioFound || !r.Ratio.Equal(c.ratio) {
				t.Errorf("%s: critical ratio %v (found=%v), want %v", r.Key, r.Ratio, r.RatioFound, c.ratio)
			}
			if r.Verdict.Witness == nil {
				t.Fatalf("%s: inadmissible verdict without a witness", r.Key)
			}
			cl := cycles.Classify(*r.Verdict.Witness)
			if !cl.Relevant {
				t.Fatalf("%s: witness is not relevant: %v", r.Key, *r.Verdict.Witness)
			}
			if got := cl.Ratio(); got.Less(r.Xi) || got.Greater(c.ratio) {
				t.Errorf("%s: witness ratio |Z−|/|Z+| = %v outside [Ξ=%v, critical %v]", r.Key, got, r.Xi, c.ratio)
			}
		})
	}
}
