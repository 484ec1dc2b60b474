package check

import (
	"errors"

	"repro/internal/causality"
	"repro/internal/rat"
)

// Constrained reports whether the execution graph contains a relevant
// cycle with ratio |Z−|/|Z+| strictly above 1, i.e. whether any Ξ > 1
// exists for which the graph is inadmissible. Graphs without such cycles
// (isolated chains, pure one-way communication, or balanced cycles with
// |Z+| = |Z−|) are ABC-admissible for every Ξ > 1 — the paper's point that
// processes that do not exchange messages are entirely unconstrained.
//
// A relevant ratio is a fraction p/q with p, q bounded by the message
// count K, so any ratio above 1 is at least K/(K−1); one Bellman–Ford run
// at Ξ = K/(K−1) decides the question.
func Constrained(g *causality.Graph) (bool, error) {
	k := int64(g.MessageCount())
	if k < 2 {
		return false, nil // a relevant cycle needs |Z+| >= 1 and |Z−| >= 1
	}
	p, err := newProber(g)
	if err != nil {
		return false, err
	}
	return p.constrained(k)
}

// constrained is Constrained for an already-built prober.
func (p *prober) constrained(k int64) (bool, error) {
	v, err := p.probe(k, k-1, false)
	if err != nil {
		return false, err
	}
	return !v.Admissible, nil
}

// MaxRelevantRatio computes the exact critical ratio of the execution
// graph: the maximum of |Z−|/|Z+| over all relevant cycles Z, provided it
// exceeds 1. The graph is ABC-admissible for Ξ exactly when Ξ > this ratio
// (strictly). found is false when no relevant cycle has ratio above 1, in
// which case the graph is admissible for every Ξ > 1 and imposes no
// constraint (ratio-1 cycles never violate Definition 4 since Ξ > 1).
//
// The ratio is found without enumerating cycles: "some relevant ratio >= x"
// is a monotone predicate decided by one Bellman–Ford run, and the answer
// is a fraction with numerator and denominator bounded by the message
// count K, so a Stern–Brocot descent with galloping locates it exactly
// with O(log² K) oracle calls.
//
// The search's size limit is the probe's overflow guard, not its running
// time. Probe weights are at most the galloping bound (K+2)² and carry no
// graph-size factor, so path sums over V nodes grow like V·K², and the
// guard 4·(V+2)·(K+2)² <= MaxInt64 holds for every K below the 2^20 cap
// up to V ≈ 2·10^6. Past it the probe, and with it the search, fails with
// "graph too large for exact int64 arithmetic".
func MaxRelevantRatio(g *causality.Graph) (ratio rat.Rat, found bool, err error) {
	k := int64(g.MessageCount())
	if k < 2 {
		return rat.Zero, false, nil // a relevant cycle needs |Z+| >= 1 and |Z−| >= 1
	}
	if k > 1<<20 {
		return rat.Zero, false, errors.New("check: graph too large for exact ratio search")
	}
	// maxNum caps probe numerators: the answer's numerator is at most k·den
	// with den <= k, and Stern–Brocot neighbors stay within (k+2)², so the
	// cap never cuts off a reachable answer; it only bounds galloping.
	maxNum := (k + 2) * (k + 2)
	// One prober serves every Bellman–Ford probe of the search: the
	// constraint topology is fixed, only weights change per candidate.
	p, err := newProber(g)
	if err != nil {
		return rat.Zero, false, err
	}
	violated := func(num, den int64) (bool, error) {
		v, err := p.probe(num, den, false)
		if err != nil {
			return false, err
		}
		return !v.Admissible, nil
	}

	has, err := p.constrained(k)
	if err != nil {
		return rat.Zero, false, err
	}
	if !has {
		return rat.Zero, false, nil
	}

	// Stern–Brocot descent over the interval [L, R) with the tree's
	// boundary R = 1/0 (infinity). Invariants:
	//   the answer lies in [L, R); not violated(R); violated(L) once L has
	//   moved off its initial 1/1 (and it must move, since the answer
	//   exceeds 1 strictly and has denominator <= k);
	//   L and R are tree-adjacent: pl·qh − ph·ql = −1.
	// Adjacency means the mediant is the unique minimum-denominator
	// fraction strictly inside (L, R); once its denominator exceeds k, no
	// candidate with denominator <= k remains inside and the answer is L.
	pl, ql := int64(1), int64(1)
	ph, qh := int64(1), int64(0)

	const maxIters = 512 // defensive; the walk is O(log² k) in practice
	for iter := 0; ql+qh <= k; iter++ {
		if iter >= maxIters {
			return rat.Zero, false, errors.New("check: Stern–Brocot descent did not converge")
		}
		v, err := violated(pl+ph, ql+qh)
		if err != nil {
			return rat.Zero, false, err
		}
		if v {
			// Move L rightward through L_j = (pl+j·ph)/(ql+j·qh), galloping
			// j while the step stays representable and violated.
			ok := func(j int64) (bool, error) {
				if ql+j*qh > k || pl+j*ph > maxNum {
					return false, nil
				}
				return violated(pl+j*ph, ql+j*qh)
			}
			lo, err := gallop(ok)
			if err != nil {
				return rat.Zero, false, err
			}
			pl, ql = pl+lo*ph, ql+lo*qh
		} else {
			// Move R leftward through R_j = (ph+j·pl)/(qh+j·ql), galloping
			// j while the step stays representable and not violated.
			ok := func(j int64) (bool, error) {
				if ph+j*pl > maxNum || qh+j*ql > maxNum {
					return false, nil
				}
				v, err := violated(ph+j*pl, qh+j*ql)
				if err != nil {
					return false, err
				}
				return !v, nil
			}
			lo, err := gallop(ok)
			if err != nil {
				return rat.Zero, false, err
			}
			ph, qh = ph+lo*pl, qh+lo*ql
		}
	}
	return rat.New(pl, ql), true, nil
}

// gallop finds the largest j >= 1 with ok(j), assuming ok(1) holds and ok
// is monotone (once false, stays false). It doubles j and then binary
// searches, using O(log j) probes.
func gallop(ok func(int64) (bool, error)) (int64, error) {
	j := int64(1)
	for {
		good, err := ok(j * 2)
		if err != nil {
			return 0, err
		}
		if !good {
			break
		}
		j *= 2
	}
	lo, hi := j, j*2 // ok(lo), !ok(hi)
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
