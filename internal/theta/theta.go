// Package theta implements the Θ-Model of Le Lann, Schmid and Widder that
// Section 4 of the ABC paper proves indistinguishable from the ABC model
// for message-driven algorithms: the ratio of the maximum to the minimum
// end-to-end delay of messages (simultaneously in transit, in the dynamic
// variant) is bounded by Θ.
//
// The package provides admissibility checkers for both the static variant
// (global bounds τ−, τ+ with τ+/τ− <= Θ) and the dynamic variant
// (τ+(t)/τ−(t) <= Θ at every time t). They also check the Theorem 9
// bridge: check.Assignment.Retime times an admissible ABC execution graph
// with its normalized delay assignment (Theorem 7), and CheckStatic finds
// the retimed trace Θ-admissible for every Θ >= Ξ.
//
// Together with Theorem 6 (every Θ-admissible execution with Θ < Ξ is
// ABC-admissible, tested in internal/check) this gives both directions of
// the containment story: M_Θ ⊆ M_ABC strictly — e.g. zero-delay messages
// (Fig. 1's m3) are ABC-admissible but violate every Θ.
package theta

import (
	"fmt"
	"sort"

	"repro/internal/rat"
	"repro/internal/sim"
)

// Report is the outcome of a Θ-admissibility check.
type Report struct {
	// Admissible is true when the checked condition holds.
	Admissible bool
	// MinDelay and MaxDelay are the extreme correct-message delays
	// observed (static check) or the worst simultaneous pair (dynamic
	// check). Zero MinDelay makes every Θ inadmissible.
	MinDelay, MaxDelay rat.Rat
	// Messages is the number of correct messages considered.
	Messages int
	// Reason describes the violation, empty when admissible.
	Reason string
}

// correctMessages yields the non-wakeup messages sent and received by
// correct processes — the ones the Θ-Model constrains.
func correctMessages(t *sim.Trace) []sim.Message {
	var out []sim.Message
	for _, m := range t.Msgs {
		if m.IsWakeup() || m.SendStep == sim.SendStepScripted {
			continue
		}
		if t.Faulty[m.From] || t.Faulty[m.To] {
			continue
		}
		out = append(out, m)
	}
	return out
}

// CheckStatic verifies the static Θ-Model condition: there exist bounds
// 0 < τ− <= delay(m) <= τ+ < ∞ for every correct message m with
// τ+/τ− <= Θ — equivalently, maxDelay/minDelay <= Θ with minDelay > 0.
func CheckStatic(t *sim.Trace, theta rat.Rat) Report {
	msgs := correctMessages(t)
	r := Report{Admissible: true, Messages: len(msgs)}
	for i, m := range msgs {
		d := m.RecvTime.Sub(m.SendTime)
		if i == 0 {
			r.MinDelay, r.MaxDelay = d, d
			continue
		}
		r.MinDelay = rat.Min(r.MinDelay, d)
		r.MaxDelay = rat.Max(r.MaxDelay, d)
	}
	if len(msgs) == 0 {
		return r
	}
	if r.MinDelay.Sign() <= 0 {
		r.Admissible = false
		r.Reason = "zero-delay message: no positive τ− exists"
		return r
	}
	if ratio := r.MaxDelay.Div(r.MinDelay); ratio.Greater(theta) {
		r.Admissible = false
		r.Reason = fmt.Sprintf("delay ratio %.3g exceeds Θ = %v", ratio.Float64(), theta)
	}
	return r
}

// CheckDynamic verifies the dynamic Θ-Model condition: for every time t,
// the delays of correct messages simultaneously in transit at t satisfy
// τ+(t)/τ−(t) <= Θ. A message is in transit during [send, recv); a
// zero-delay message is never in transit.
func CheckDynamic(t *sim.Trace, theta rat.Rat) Report {
	msgs := correctMessages(t)
	r := Report{Admissible: true, Messages: len(msgs)}
	if len(msgs) == 0 {
		return r
	}
	// Sweep the distinct send times; the in-transit set only grows at send
	// instants, so checking each send time covers all maxima.
	times := make([]rat.Rat, 0, len(msgs))
	for _, m := range msgs {
		times = append(times, m.SendTime)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Less(times[j]) })
	for _, t0 := range times {
		var min, max rat.Rat
		found := false
		for _, m := range msgs {
			if m.SendTime.Greater(t0) || m.RecvTime.LessEq(t0) {
				continue // not in transit at t0
			}
			d := m.RecvTime.Sub(m.SendTime)
			if !found {
				min, max, found = d, d, true
				continue
			}
			min = rat.Min(min, d)
			max = rat.Max(max, d)
		}
		if found && max.Div(min).Greater(theta) {
			return Report{
				Admissible: false,
				MinDelay:   min,
				MaxDelay:   max,
				Messages:   len(msgs),
				Reason:     fmt.Sprintf("in-transit ratio %v exceeds Θ = %v at time %v", max.Div(min), theta, t0),
			}
		}
	}
	return r
}
