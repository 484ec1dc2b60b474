// Package parsync embeds the classic partially synchronous model of Dwork,
// Lynch and Stockmeyer ("ParSync", Section 5.1 of the ABC paper): a global
// discrete clock ticks whenever a process takes a step; every correct
// process takes at least one step in any window of Φ ticks, and a message
// sent at tick k is received by tick k + Δ.
//
// For the message-driven traces of this repository, steps are the
// processed receive events in global delivery order, which gives the
// natural embedding: the tick of an event is its position in that order.
//
// The centerpiece is the Prover/Adversary game of Fig. 8: for every
// adversary choice of (Φ, Δ), the Prover — who committed to Ξ first —
// constructs an execution that satisfies the ABC synchrony condition (2)
// for Ξ (and even contains a relevant cycle, so it is genuinely
// constrained) yet violates both the Φ and the Δ bound. This shows
// executions of the ABC model cannot be modeled in ParSync.
package parsync

import (
	"fmt"

	"repro/internal/rat"
	"repro/internal/sim"
)

// Report is the outcome of a ParSync admissibility check.
type Report struct {
	Admissible bool
	// MaxStepGap is the largest observed gap, in global ticks, between
	// consecutive steps of a correct process (or between its first
	// opportunity and first step).
	MaxStepGap int
	// MaxDelay is the largest observed message delay in global ticks.
	MaxDelay int
	// Reason describes the violation, empty when admissible.
	Reason string
}

// Check verifies whether the trace is admissible in ParSync(Φ, Δ) under
// the step embedding described in the package comment. Only correct
// processes and messages between correct processes are constrained.
func Check(t *sim.Trace, phi, delta int) Report {
	r := Report{Admissible: true}
	correct := make([]bool, t.N)
	for _, p := range t.CorrectProcesses() {
		correct[p] = true
	}

	// Global tick of each event = its index among processed events.
	tickOf := make([]int, len(t.Events)) // -1 for unprocessed
	tick := 0
	for i, ev := range t.Events {
		if ev.Processed {
			tickOf[i] = tick
			tick++
		} else {
			tickOf[i] = -1
		}
	}

	// Relative speed: gaps between consecutive steps of a correct process.
	lastStep := make([]int, t.N)
	for p := range lastStep {
		lastStep[p] = 0
	}
	for i, ev := range t.Events {
		if tickOf[i] < 0 || !correct[ev.Proc] {
			continue
		}
		if gap := tickOf[i] - lastStep[ev.Proc]; gap > r.MaxStepGap {
			r.MaxStepGap = gap
		}
		lastStep[ev.Proc] = tickOf[i]
	}
	// Trailing gaps (after a process's last step) are not counted: on a
	// finite prefix a quiescent process is not evidence of a Φ violation.
	if r.MaxStepGap > phi {
		r.Admissible = false
		r.Reason = fmt.Sprintf("step gap %d exceeds Φ = %d", r.MaxStepGap, phi)
	}

	// Message delays in ticks: from the sending step's tick to the receive
	// event's tick. One pass over the receive events, each resolving its
	// trigger's sending step through per-process position rows.
	steps := make([][]int, t.N) // steps[p][k] is the position of p's k-th event
	for i, ev := range t.Events {
		steps[ev.Proc] = append(steps[ev.Proc], i)
	}
	for i, ev := range t.Events {
		m := t.Msgs[ev.Trigger]
		if m.IsWakeup() || m.SendStep < 0 || !correct[m.From] || !correct[m.To] || tickOf[i] < 0 {
			continue
		}
		sent := steps[m.From]
		if m.SendStep >= len(sent) || tickOf[sent[m.SendStep]] < 0 {
			continue
		}
		if d := tickOf[i] - tickOf[sent[m.SendStep]]; d > r.MaxDelay {
			r.MaxDelay = d
		}
	}
	if r.MaxDelay > delta {
		r.Admissible = false
		if r.Reason != "" {
			r.Reason += "; "
		}
		r.Reason += fmt.Sprintf("message delay %d ticks exceeds Δ = %d", r.MaxDelay, delta)
	}
	return r
}

// maxWitnessEvents is the simulator's default receive-event budget: no
// default-budget run produces a longer execution than this.
const maxWitnessEvents = 200000

// ProverExecution constructs the Fig. 8 witness for the game: given the
// adversary's (Φ, Δ) and the Prover's Ξ, it builds a trace that
//
//   - contains a relevant cycle with |Z−| = L > max(Φ, Δ) backward
//     messages (a ping-pong chain between p and q) spanned by a forward
//     chain of k+1 slow messages through relay processes, with
//     L/(k+1) < Ξ, so the ABC synchrony condition (2) holds; and
//   - violates ParSync(Φ, Δ): q executes more than Δ ticks while the slow
//     chain's first message is in transit, and the relays take no step for
//     more than Φ ticks.
//
// Layout: q = 0, p = 1, relays = 2 .. 2+k−1.
//
// The witness has L + 2k + 3 events; a (Φ, Δ) that needs more than
// maxWitnessEvents is an error, checked before anything is allocated.
func ProverExecution(phi, delta int, xi rat.Rat) (*sim.Trace, error) {
	if !xi.Greater(rat.One) {
		return nil, fmt.Errorf("parsync: Ξ = %v must exceed 1", xi)
	}
	tooLarge := func() error {
		return fmt.Errorf("parsync: the witness for Φ = %d, Δ = %d exceeds %d events", phi, delta, maxWitnessEvents)
	}
	l := max(phi, delta)
	if l > maxWitnessEvents {
		return nil, tooLarge()
	}
	l += 2 // |Z−| strictly greater than both, with margin
	if l%2 == 1 {
		l++ // ping-pong chains have even length
	}
	// Choose k+1 forward messages so that L/(k+1) < Ξ: k+1 = floor(L/Ξ)+1.
	kPlus1 := rat.FromInt(int64(l)).Div(xi).Floor() + 1
	k := int(kPlus1 - 1)
	if k < 1 {
		k = 1
	}
	if l+2*k+3 > maxWitnessEvents {
		return nil, tooLarge()
	}

	n := 2 + k
	b := sim.NewTraceBuilder(n)
	b.WakeAll(rat.Zero)

	// Slow chain: q -> relay 2 -> ... -> relay (2+k-1) -> q. The first
	// message leaves at q's wake-up and lingers; the relays fire in a
	// burst at the very end.
	// Meanwhile p and q ping-pong L messages during (0, T).
	tEnd := int64(l) + 10
	// Ping-pong: q's wake-up starts it.
	b.MsgAt(0, 0, 1, 1, "pp0") // q -> p
	for i := 1; i < l; i++ {
		if i%2 == 1 {
			b.MsgAt(1, (i+1)/2, 0, int64(i+1), fmt.Sprintf("pp%d", i)) // p -> q
		} else {
			b.MsgAt(0, i/2, 1, int64(i+1), fmt.Sprintf("pp%d", i)) // q -> p
		}
	}
	// Slow chain fires late: q(wake) -> relay2 at tEnd, then fast hops.
	cur := tEnd
	b.Msg(0, 0, 2, rat.FromInt(cur), "slow0")
	for i := 0; i < k-1; i++ {
		cur++
		b.Msg(sim.ProcessID(2+i), 1, sim.ProcessID(3+i), rat.FromInt(cur), fmt.Sprintf("slow%d", i+1))
	}
	// Last hop back to q, arriving after the ping-pong chain completed.
	cur++
	b.Msg(sim.ProcessID(2+k-1), 1, 0, rat.FromInt(cur), "slowLast")
	return b.Build()
}
