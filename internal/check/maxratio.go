package check

import (
	"fmt"

	"repro/internal/causality"
	"repro/internal/rat"
)

// MaxRelevantRatio computes the exact critical ratio of the execution
// graph: the maximum of |Z−|/|Z+| over all relevant cycles Z, provided it
// exceeds 1. The graph is ABC-admissible for Ξ exactly when Ξ > this ratio
// (strictly). found is false when no relevant cycle has ratio above 1, in
// which case the graph is admissible for every Ξ > 1 and imposes no
// constraint (ratio-1 cycles never violate Definition 4 since Ξ > 1).
//
// The ratio is found without enumerating cycles. Every relevant ratio is a
// fraction whose numerator and denominator are at most the message count
// K. A Bellman–Ford probe at Ξ is violated exactly when some relevant
// ratio is >= Ξ, and then its negative cycle is a relevant cycle whose
// arc counts give such a ratio r (the witness ratio). The search is
// Dinkelbach's iteration for ratio problems made exact by Farey
// neighbours: probe K/(K−1), the smallest candidate above 1; while the
// probe is violated, take its witness ratio r and probe the smallest
// fraction above r whose numerator and denominator are at most K. An
// admissible probe at that fraction rules out every relevant ratio above
// r, and r itself belongs to a relevant cycle, so r is the answer. Each
// violated probe yields a strictly larger witness, so the search ends; in
// practice after a handful of probes (at most 5 per search on the
// catalogue).
//
// Every probe's numerator and denominator are at most K <= V, so probe
// walk sums grow like V·K and the overflow guard 4·(V+2)·K <= MaxInt64 is
// the search's only size limit. Past it the probe, and with it the search,
// fails with "graph too large for exact int64 arithmetic".
func MaxRelevantRatio(g *causality.Graph) (ratio rat.Rat, found bool, err error) {
	if g.MessageCount() < 2 {
		return rat.Zero, false, nil // a relevant cycle needs |Z+| >= 1 and |Z−| >= 1
	}
	p, err := NewProber(g)
	if err != nil {
		return rat.Zero, false, err
	}
	return p.MaxRelevantRatio()
}

// MaxRelevantRatio runs the critical-ratio search of the package-level
// MaxRelevantRatio on the prober's store: every probe re-solves the same
// arcs, plan and scratch under a new weight vector, so a verdict and a
// search of one graph build its constraints once.
func (p *Prober) MaxRelevantRatio() (ratio rat.Rat, found bool, err error) {
	k := int64(p.g.MessageCount())
	if k < 2 {
		return rat.Zero, false, nil // a relevant cycle needs |Z+| >= 1 and |Z−| >= 1
	}
	res, err := p.probe(k, k-1)
	if err != nil || res.feasible {
		return rat.Zero, false, err
	}
	n, d := p.s.witnessRatio(res.cycle)
	for {
		sn, sd, ok := nextAbove(n, d, k)
		if !ok {
			break // n/d = K/1, the largest candidate
		}
		if res, err = p.probe(sn, sd); err != nil {
			return rat.Zero, false, err
		}
		if res.feasible {
			break
		}
		wn, wd := p.s.witnessRatio(res.cycle)
		if wn*d <= n*wd { // both sides <= K², see nextAbove
			return rat.Zero, false, fmt.Errorf(
				"check: internal error: witness ratio %d/%d at Ξ=%d/%d does not exceed %d/%d", wn, wd, sn, sd, n, d)
		}
		n, d = wn, wd
	}
	return rat.New(n, d), true, nil
}

// witnessRatio returns |Z−|/|Z+| in lowest terms for the relevant cycle
// behind a negative constraint cycle: its lower-bound arcs are Z−, its
// upper-bound arcs Z+. Both counts are at most K, and |Z+| >= 1 because
// lower-bound and local arcs alone run backward through a DAG.
func (s *store) witnessRatio(neg []int32) (num, den int64) {
	for _, a := range neg {
		switch s.code[a] {
		case wLower:
			num++
		case wUpper:
			den++
		}
	}
	g := gcd(num, den)
	return num / g, den / g
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// nextAbove returns the smallest fraction above n/d (lowest terms,
// 1 <= d < n <= k) whose numerator and denominator are both at most k, or
// ok == false when there is none (n/d = k/1). Its inverse a/b is the
// predecessor of d/n in the Farey sequence F_k, so b·d − a·n = 1 with b the
// largest value <= k congruent to d⁻¹ mod n.
//
// Every operand is at most k and every product at most k². That fits in
// int64: MaxRelevantRatio calls this only after sizeGuard admitted
// Ξ = k/(k−1) on V >= k nodes, so 4·(V+2)·k, and with it k², is below
// MaxInt64.
func nextAbove(n, d, k int64) (num, den int64, ok bool) {
	// Extended Euclid on (d, n), keeping x·d ≡ r (mod n); |x| < n.
	x, x1, r, r1 := int64(1), int64(0), d, n
	for r1 != 0 {
		q := r / r1
		x, x1 = x1, x-q*x1
		r, r1 = r1, r-q*r1
	}
	b := x % n // r == gcd(d, n) == 1, so b ≡ d⁻¹ (mod n)
	if b < 0 {
		b += n
	}
	b += (k - b) / n * n
	a := (b*d - 1) / n
	if a == 0 {
		return 0, 0, false
	}
	return b, a, true
}
