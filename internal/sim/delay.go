package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/rat"
)

// A DelayPolicy assigns an end-to-end delay to each message. The ABC model
// places no constraint on individual delays — they may be zero, huge, or
// continuously growing — so the policy is the adversary's lever for shaping
// executions. Policies must return a non-negative delay and must be
// deterministic given the message and the rng.
type DelayPolicy interface {
	// Delay returns the end-to-end delay of m. The message has its ID,
	// From, To, SendTime and Payload fields populated; RecvTime is not yet
	// assigned.
	Delay(m Message, rng *rand.Rand) Time
}

// ConstantDelay delays every message by the same amount.
type ConstantDelay struct{ D Time }

// Delay implements DelayPolicy.
func (c ConstantDelay) Delay(Message, *rand.Rand) Time { return c.D }

// quantSteps is the quantization granularity of the randomized policies.
const quantSteps = 1 << 16

// UniformDelay draws delays uniformly from the rational interval
// [Min, Max], quantized to granularity (Max-Min)/2^16.
type UniformDelay struct{ Min, Max Time }

// Delay implements DelayPolicy.
func (u UniformDelay) Delay(_ Message, rng *rand.Rand) Time {
	span := u.Max.Sub(u.Min)
	k := rng.Int63n(quantSteps + 1)
	return u.Min.Add(span.Mul(rat.New(k, quantSteps)))
}

// GrowingDelay models systems whose delays increase without bound, like the
// paper's spacecraft clusters drifting apart (Section 5.3): a message sent
// at time t is delayed Base·(1 + Rate·t) scaled by a uniform factor in
// [1, Spread]. With Spread below the model's Ξ this remains ABC-admissible
// even though no static Θ or ParSync Δ bound can hold.
type GrowingDelay struct {
	Base   Time
	Rate   Time // growth per unit of send time
	Spread Time // >= 1; 1 means deterministic
}

// Delay implements DelayPolicy.
func (g GrowingDelay) Delay(m Message, rng *rand.Rand) Time {
	base := g.Base.Mul(rat.One.Add(g.Rate.Mul(m.SendTime)))
	spread := g.Spread
	if spread.Less(rat.One) {
		spread = rat.One
	}
	k := rng.Int63n(quantSteps + 1)
	factor := rat.One.Add(spread.Sub(rat.One).Mul(rat.New(k, quantSteps)))
	return base.Mul(factor)
}

// PerLinkDelay selects a policy per directed link, falling back to Default.
// It models heterogeneous networks such as the placed-and-routed VLSI chips
// of Section 5.3, where each wire has its own delay range.
type PerLinkDelay struct {
	Default DelayPolicy
	Links   map[Link]DelayPolicy
}

// Link is a directed process pair.
type Link struct{ From, To ProcessID }

// Delay implements DelayPolicy.
func (p PerLinkDelay) Delay(m Message, rng *rand.Rand) Time {
	if pol, ok := p.Links[Link{m.From, m.To}]; ok {
		return pol.Delay(m, rng)
	}
	return p.Default.Delay(m, rng)
}

// OverrideDelay applies Override to messages matched by Match and Base to
// all others. It is used to inject targeted anomalies such as the
// zero-delay message m3 of Fig. 1 or the slow reply of Fig. 3.
type OverrideDelay struct {
	Base     DelayPolicy
	Match    func(m Message) bool
	Override DelayPolicy
}

// Delay implements DelayPolicy.
func (o OverrideDelay) Delay(m Message, rng *rand.Rand) Time {
	if o.Match != nil && o.Match(m) {
		return o.Override.Delay(m, rng)
	}
	return o.Base.Delay(m, rng)
}

// validateDelays reports a built-in policy whose bounds admit a negative
// delay — a ConstantDelay below zero, a UniformDelay with Min < 0 or
// Max < Min — as a configuration error at setup, instead of a panic at
// the first send that draws a negative value. Composite policies are
// checked recursively; other policy types are not checked.
func validateDelays(p DelayPolicy) error {
	switch q := p.(type) {
	case ConstantDelay:
		if q.D.Sign() < 0 {
			return fmt.Errorf("sim: constant delay %v is negative", q.D)
		}
	case UniformDelay:
		if q.Min.Sign() < 0 {
			return fmt.Errorf("sim: uniform delay [%v, %v] has negative minimum", q.Min, q.Max)
		}
		if q.Max.Less(q.Min) {
			return fmt.Errorf("sim: uniform delay [%v, %v] has maximum below minimum", q.Min, q.Max)
		}
	case PerLinkDelay:
		if err := validateDelays(q.Default); err != nil {
			return err
		}
		// Report the lowest failing link, so the error text does not
		// depend on map iteration order.
		var bad *Link
		var badErr error
		for l, lp := range q.Links {
			if err := validateDelays(lp); err != nil && (bad == nil || l.From < bad.From || l.From == bad.From && l.To < bad.To) {
				bad, badErr = &l, err
			}
		}
		if bad != nil {
			return fmt.Errorf("%w (link %d->%d)", badErr, bad.From, bad.To)
		}
	case OverrideDelay:
		if err := validateDelays(q.Base); err != nil {
			return err
		}
		return validateDelays(q.Override)
	}
	return nil
}
