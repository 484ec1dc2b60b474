// Package related implements the remaining partially synchronous models
// the paper relates the ABC model to in Section 5.2: Fetzer's Message
// Classification Model (MCM) and the query–response model of Mostefaoui,
// Mourgaya and Raynal (MMR). Both are order/classification based — like
// the ABC condition, and unlike the delay-bound models — which is why the
// paper singles them out for comparison.
//
// The package provides admissibility checkers for both and the
// incomparability experiments of Section 5.2: ABC-admissible executions
// that admit no valid MCM classification (the MCM assumption is more
// demanding: no two messages with delay ratio in (1, 2] may be in transit
// simultaneously unless both are slow), and MMR winning-set extraction
// from query–response traces.
package related

import (
	"repro/internal/rat"
	"repro/internal/sim"
)

// MCMClassifiable reports whether ANY slow/fast classification of the
// trace's correct messages satisfies Fetzer's requirement — the end-to-end
// delay of every slow message strictly exceeds twice that of every fast
// message. Equivalently (sorting delays), it reports whether some
// threshold splits the delay multiset so that everything above is more
// than twice everything below, with the all-fast and all-slow splits
// always allowed. A trace with two messages whose delay ratio lies in
// (1, 2] and which must be separated cannot be classified unless they land
// on the same side; since the all-fast split is always valid, the
// interesting question — answered here — is whether a split with at least
// one slow message exists (Fetzer requires the existence of genuinely
// usable slow messages: local messages are always delivered slow).
func MCMClassifiable(t *sim.Trace) (splitExists bool, delays []rat.Rat) {
	for _, m := range t.Msgs {
		if m.IsWakeup() || t.Faulty[m.From] || t.Faulty[m.To] {
			continue
		}
		delays = append(delays, m.RecvTime.Sub(m.SendTime))
	}
	if len(delays) == 0 {
		return true, nil
	}
	// Sort ascending.
	for i := 1; i < len(delays); i++ {
		for j := i; j > 0 && delays[j].Less(delays[j-1]); j-- {
			delays[j], delays[j-1] = delays[j-1], delays[j]
		}
	}
	// A nontrivial split after index i is valid iff delays[i+1] > 2·delays[i]
	// (monotonicity makes the extremes the binding pair).
	for i := 0; i+1 < len(delays); i++ {
		if delays[i+1].Greater(delays[i].MulInt(2)) {
			return true, delays
		}
	}
	return false, delays
}
