// Package variants implements the weaker ABC models of Section 6 of the
// paper:
//
//   - ?ABC: Ξ holds perpetually but is unknown — handled by online
//     estimation (XiLearner) following the paper's sketch of increasing
//     the estimate Ξ̂ whenever a late message contradicts it;
//   - ◇ABC: Ξ is known but holds only eventually, from some consistent
//     cut C_GST on — FindGST locates the earliest such cut in a trace;
//   - ?◇ABC: both — estimation combined with eventual validity;
//   - eventual lock-step rounds via doubling round durations, the
//     construction the paper imports from the Θ-Model literature: once the
//     round length exceeds the (unknown or eventually holding) 2Ξ, every
//     later round is a correct lock-step round.
package variants

import (
	"fmt"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/lockstep"
	"repro/internal/rat"
	"repro/internal/sim"
)

// Kind names the four model variants of Section 6.
type Kind int

// The model variants.
const (
	// KnownPerpetual is the base ABC model of Section 2.
	KnownPerpetual Kind = iota + 1
	// UnknownPerpetual is the ?ABC model.
	UnknownPerpetual
	// KnownEventual is the ◇ABC model.
	KnownEventual
	// UnknownEventual is the ?◇ABC model.
	UnknownEventual
)

func (k Kind) String() string {
	switch k {
	case KnownPerpetual:
		return "ABC"
	case UnknownPerpetual:
		return "?ABC"
	case KnownEventual:
		return "◇ABC"
	case UnknownEventual:
		return "?◇ABC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// XiLearner estimates an unknown Ξ online (?ABC model). Following the
// paper's sketch, the estimate starts below the true value and is raised
// whenever an observed execution contradicts it — i.e. contains a relevant
// cycle with ratio >= Ξ̂. Since admissible executions never exhibit ratios
// >= the true Ξ, the estimate converges: it is non-decreasing, bounded by
// the true Ξ (with margin), and changes only finitely often.
type XiLearner struct {
	est rat.Rat
	// Margin is the headroom added above an observed ratio; the estimate
	// must exceed the largest ratio, not merely match it.
	margin rat.Rat
	bumps  int
}

// NewXiLearner returns a learner with the given initial estimate
// (must be > 1) and margin (must be > 0).
func NewXiLearner(initial, margin rat.Rat) (*XiLearner, error) {
	if !initial.Greater(rat.One) {
		return nil, fmt.Errorf("variants: initial estimate %v must exceed 1", initial)
	}
	if margin.Sign() <= 0 {
		return nil, fmt.Errorf("variants: margin %v must be positive", margin)
	}
	return &XiLearner{est: initial, margin: margin}, nil
}

// Estimate returns the current Ξ̂.
func (l *XiLearner) Estimate() rat.Rat { return l.est }

// Bumps returns how many times the estimate was raised.
func (l *XiLearner) Bumps() int { return l.bumps }

// Observe checks an execution graph against the current estimate; when
// contradicted, it raises Ξ̂ above the worst observed relevant ratio and
// reports true.
func (l *XiLearner) Observe(g *causality.Graph) (raised bool, err error) {
	p, err := check.NewProber(g)
	if err != nil {
		return false, err
	}
	v, err := p.ABC(l.est)
	if err != nil {
		return false, err
	}
	if v.Admissible {
		return false, nil
	}
	worst, found, err := p.MaxRelevantRatio()
	if err != nil {
		return false, err
	}
	if !found {
		return false, fmt.Errorf("variants: inadmissible graph with no constraining ratio")
	}
	l.est = worst.Add(l.margin)
	l.bumps++
	return true, nil
}

// FindGST locates the ◇ABC global stabilization point in a trace: the
// smallest global event index i such that, after exempting every message
// sent before event i (the cycles "starting at or after" the cut C_GST,
// per Section 6), all remaining relevant cycles satisfy Ξ. ok is false
// when even the full exemption (i = len(events)) fails, which cannot
// happen since an empty graph is vacuously admissible.
func FindGST(t *sim.Trace, xi rat.Rat) (gstIndex int, ok bool, err error) {
	sentBefore := dropSentBefore(t)
	admissibleFrom := func(i int) (bool, error) {
		g := causality.Build(t, causality.Options{DropMessage: sentBefore(i)})
		v, err := check.ABC(g, xi)
		if err != nil {
			return false, err
		}
		return v.Admissible, nil
	}
	// Dropping more messages only removes cycles, so admissibility is
	// monotone in i: binary search for the smallest admissible boundary.
	lo, hi := 0, len(t.Events) // invariant: hi admissible (vacuously), lo-1 n/a
	if a, err := admissibleFrom(0); err != nil {
		return 0, false, err
	} else if a {
		return 0, true, nil
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		a, err := admissibleFrom(mid)
		if err != nil {
			return 0, false, err
		}
		if a {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}

// dropSentBefore returns FindGST's exemption rule: dropSentBefore(t)(i)
// drops every message whose sending step lies before global event index i
// of t. The per-process position rows are built once, so the returned
// function serves a whole search.
func dropSentBefore(t *sim.Trace) func(i int) func(sim.Message) bool {
	steps := make([][]int, t.N) // steps[p][k] is the position of p's k-th event
	for pos, ev := range t.Events {
		steps[ev.Proc] = append(steps[ev.Proc], pos)
	}
	return func(i int) func(sim.Message) bool {
		return func(m sim.Message) bool {
			sent := steps[m.From]
			return m.SendStep >= 0 && m.SendStep < len(sent) && sent[m.SendStep] < i
		}
	}
}

// DoublingBoundary returns the round-boundary function for eventual
// lock-step: round r starts at tick x0·(2^r − 1), i.e. round r lasts
// x0·2^r phases. Once x0·2^r >= 2Ξ (for the true, possibly unknown,
// eventually holding Ξ) every later round is a correct lock-step round.
func DoublingBoundary(x0 int64) func(r int) int64 {
	return func(r int) int64 {
		if r >= 62 {
			panic("variants: doubling boundary overflow")
		}
		return x0 * ((int64(1) << uint(r)) - 1)
	}
}

// FirstCompleteRound scans lock-step processes and returns the smallest
// round r0 such that every correct process's round computations from r0
// on received the round messages of all correct processes; ok is false
// when no such suffix exists (some process's last observed round is still
// incomplete).
func FirstCompleteRound(procs []sim.Process, faults map[sim.ProcessID]sim.Fault) (r0 int, ok bool) {
	worstIncomplete := -1
	maxRound := -1
	for id, pr := range procs {
		if _, bad := faults[sim.ProcessID(id)]; bad {
			continue
		}
		ls, isLS := pr.(*lockstep.Proc)
		if !isLS {
			return 0, false
		}
		for _, rec := range ls.Records() {
			if rec.R > maxRound {
				maxRound = rec.R
			}
			for q := range rec.Received {
				if _, bad := faults[sim.ProcessID(q)]; bad {
					continue
				}
				if rec.Received[q] == nil && rec.R > worstIncomplete {
					worstIncomplete = rec.R
				}
			}
		}
	}
	if worstIncomplete >= maxRound {
		return 0, false
	}
	return worstIncomplete + 1, true
}
