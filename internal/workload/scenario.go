package workload

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rat"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The scenario workload serves the paper's space–time diagrams
// (internal/scenario) as pre-built traces, selected by the fig parameter
// and checked at any Ξ. It registers here rather than in package scenario
// because the figures are the checker's own test ground truth: scenario
// must stay free of check/runner imports so the in-package tests of those
// packages can keep using it.
//
// The domain verdict pins each figure's ground truth: the exact critical
// ratio from the table below, and verdict consistency — admissible
// exactly when the critical ratio (if any) is below the checked Ξ.

// figSpec pins one paper figure: its builder and its exact critical ratio
// (the largest relevant-cycle ratio; nil when no relevant cycle
// constrains the execution, i.e. admissible for every Ξ > 1). The ratios
// are the figures' headline claims — Fig. 1 is 5/4, Fig. 2's combined
// cycle X ⊕ Y is 3, Fig. 3's violating cycle is 2, Figs. 4 and 9 are
// unconstrained.
type figSpec struct {
	build    func() *sim.Trace
	critical *rat.Rat
}

func ratPtr(r rat.Rat) *rat.Rat { return &r }

var figs = map[string]figSpec{
	"fig1": {func() *sim.Trace { return scenario.BuildFig1().Trace }, ratPtr(rat.New(5, 4))},
	"fig2": {func() *sim.Trace { return scenario.BuildFig2().Trace }, ratPtr(rat.FromInt(3))},
	"fig3": {func() *sim.Trace { return scenario.BuildFig3().Trace }, ratPtr(rat.FromInt(2))},
	"fig4": {func() *sim.Trace { return scenario.BuildFig4().Trace }, nil},
	"fig9": {func() *sim.Trace { return scenario.BuildFig9().Trace }, nil},
}

func figNames() []string {
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(Source{
		Name: "scenario",
		Doc:  "paper figure traces (" + strings.Join(figNames(), ", ") + ") with pinned critical ratios",
		Params: []Param{
			{Name: "fig", Kind: String, Default: "fig1", Doc: "figure to build: " + strings.Join(figNames(), " | ")},
			{Name: "xi", Kind: Rational, Default: "2", Doc: "model parameter Ξ for the admissibility check"},
		},
		Job: func(v Values, seed int64) (runner.Job, error) {
			spec, ok := figs[v.String("fig")]
			if !ok {
				return runner.Job{}, fmt.Errorf("scenario: unknown figure %q (have %s)",
					v.String("fig"), strings.Join(figNames(), ", "))
			}
			// The verdict pins the critical ratio, so every scenario job
			// runs the search, whatever its caller asked for.
			return runner.Job{Trace: spec.build(), Ratio: true}, nil
		},
		Verdict: func(v Values, r *runner.JobResult) error {
			spec := figs[v.String("fig")]
			crit, found := r.Ratio, r.RatioFound
			if spec.critical == nil {
				if found {
					return fmt.Errorf("scenario: %s should be unconstrained, found critical ratio %v", v.String("fig"), crit)
				}
			} else if !found || !crit.Equal(*spec.critical) {
				return fmt.Errorf("scenario: %s critical ratio = %v (found=%v), pinned %v",
					v.String("fig"), crit, found, *spec.critical)
			}
			if r.Verdict != nil {
				wantAdmissible := !found || crit.Less(r.Xi)
				if r.Verdict.Admissible != wantAdmissible {
					return fmt.Errorf("scenario: %s admissible=%v at Ξ=%v, but critical ratio %v demands %v",
						v.String("fig"), r.Verdict.Admissible, r.Xi, crit, wantAdmissible)
				}
			}
			return nil
		},
	})
}
