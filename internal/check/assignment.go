package check

import (
	"fmt"
	"math"

	"repro/internal/causality"
	"repro/internal/graphutil"
	"repro/internal/rat"
)

// Assignment is a normalized delay assignment for an execution graph
// (Section 4.1): exact rational occurrence times for all events such that
// every message edge has delay strictly between 1 and Ξ and every local
// edge has strictly positive duration. Its existence for every admissible
// ABC execution graph is Theorem 7; Timed executions built from it are
// admissible in the Θ-Model, which is the bridge used by the model
// indistinguishability results (Theorems 9 and 12).
type Assignment struct {
	g *causality.Graph
	// times[n] is the assigned occurrence time of node n.
	times []rat.Rat
}

// newAssignment converts a pair solution of the strict constraint system
// into exact rational times. x(v) = sign·(M(v) + K(v)·ε) solves the system
// in units of 1/b (sign −1 for Incremental's negated potential). Any
// ε = 1/s with s > max|K(u) − K(v)| keeps every strict inequality strict,
// so s = 2·max|K| + 3 is derived from the live potential and the bound is
// tight rather than worst-case: t(v) = sign·(M(v)·s + K(v)) / (b·s).
func newAssignment(g *causality.Graph, d []graphutil.Pair, b, sign int64) (*Assignment, error) {
	maxM, maxK := pairBounds(d)
	s := 2*maxK + 3
	if maxM > (math.MaxInt64-maxK)/s || b > math.MaxInt64/s {
		return nil, fmt.Errorf("check: potential too large for exact certificate (V=%d, b=%d)", len(d), b)
	}
	times := make([]rat.Rat, len(d))
	for i, p := range d {
		times[i] = rat.New(sign*(p.M*s+p.K), b*s)
	}
	return &Assignment{g: g, times: times}, nil
}

// pairBounds returns the largest |M| and |K| over d.
func pairBounds(d []graphutil.Pair) (maxM, maxK int64) {
	for _, p := range d {
		maxM = max(maxM, abs64(p.M))
		maxK = max(maxK, abs64(p.K))
	}
	return maxM, maxK
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Time returns the assigned occurrence time of node n.
func (a *Assignment) Time(n causality.NodeID) rat.Rat { return a.times[n] }

// Delay returns the assigned weight τ(e) of edge e: the end-to-end delay
// for message edges, the inter-event gap for local edges.
func (a *Assignment) Delay(e causality.EdgeID) rat.Rat {
	edge := a.g.Edge(e)
	return a.times[edge.To].Sub(a.times[edge.From])
}

// MinMaxMessageDelay returns the smallest and largest assigned message
// delay, or ok=false when the graph has no message edges. For a valid
// normalized assignment the ratio max/min is strictly below Ξ, which is
// how Θ-admissibility (Equation 3) follows.
func (a *Assignment) MinMaxMessageDelay() (min, max rat.Rat, ok bool) {
	for i, edge := range a.g.Edges() {
		if edge.Kind != causality.Message {
			continue
		}
		d := a.Delay(causality.EdgeID(i))
		if !ok {
			min, max, ok = d, d, true
			continue
		}
		// One comparison per bound instead of rat.Min+rat.Max's two.
		if d.Less(min) {
			min = d
		} else if d.Greater(max) {
			max = d
		}
	}
	return min, max, ok
}

// Validate checks that the assignment is normalized for the given Ξ:
// 1 < τ(e) < Ξ for all messages e, τ(ē) > 0 for all local edges ē
// (conditions (4) and (5) of the paper).
func (a *Assignment) Validate(xi rat.Rat) error {
	for i, edge := range a.g.Edges() {
		d := a.Delay(causality.EdgeID(i))
		switch edge.Kind {
		case causality.Message:
			if !d.Greater(rat.One) || !d.Less(xi) {
				return fmt.Errorf("check: message edge %d has delay %v outside (1, %v)", i, d, xi)
			}
		case causality.Local:
			if d.Sign() <= 0 {
				return fmt.Errorf("check: local edge %d has non-positive duration %v", i, d)
			}
		}
	}
	return nil
}
