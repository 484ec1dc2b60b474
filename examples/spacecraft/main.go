// Spacecraft formation (Sections 5.1/5.3 of the paper): clusters of
// spacecraft drift apart, so message delays grow without bound — no static
// Θ-Model or ParSync(Φ, Δ) bound can ever hold. The ABC model doesn't
// care: only the ratio of message counts in relevant cycles matters, and
// uniform growth preserves it.
//
// This example runs the FIFO channel construction of Fig. 10 under
// unboundedly growing delays, verifies the execution violates every static
// Θ yet is ABC-admissible, and that delivery stays in order.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	abc "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	xi := abc.RatInt(4)
	chain := abc.FIFOMinChainLen(xi) + 1 // one leg of margin

	// Delays grow 30% per time unit — the clusters are drifting apart —
	// with instantaneous spread 3/2 < Ξ.
	delays := abc.GrowingDelay{
		Base:   abc.RatInt(1),
		Rate:   abc.NewRat(3, 10),
		Spread: abc.NewRat(3, 2),
	}

	items := []any{"alpha", "beta", "gamma", "delta", "epsilon"}
	res, err := abc.Simulate(abc.Config{
		N: 3,
		Spawn: func(p abc.ProcessID) abc.Process {
			switch p {
			case 0:
				return &abc.FIFOSender{Receiver: 2, Helper: 1, Items: items, ChainLen: chain}
			case 1:
				return abc.FIFOHelper{}
			default:
				return &abc.FIFOReceiver{}
			}
		},
		Delays:    delays,
		Seed:      5,
		MaxEvents: 50000,
	})
	if err != nil {
		return err
	}

	// Delays really did grow without bound.
	var first, last abc.Rat
	for _, m := range res.Trace.Msgs {
		if m.IsWakeup() {
			continue
		}
		d := m.RecvTime.Sub(m.SendTime)
		if first.Sign() == 0 {
			first = d
		}
		last = d
	}
	fmt.Fprintf(out, "first delay %.2f, final delay %.2f — unbounded growth\n",
		first.Float64(), last.Float64())

	// Static Θ bounds erode as the formation drifts: already in this
	// finite prefix the delay ratio exceeds 100, and it grows forever.
	th := abc.CheckThetaStatic(res.Trace, abc.RatInt(100))
	fmt.Fprintf(out, "static Θ=100 admissible: %v (%s)\n", th.Admissible, th.Reason)

	// ...but the execution is ABC-admissible for Ξ = 4.
	g := abc.BuildGraph(res.Trace)
	v, err := abc.Check(g, xi)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ABC(Ξ=%v) admissible: %v\n", xi, v.Admissible)
	if !v.Admissible {
		return fmt.Errorf("unexpected violation: %v", v.Witness)
	}

	// And FIFO order held without sequence numbers.
	recv := res.Procs[2].(*abc.FIFOReceiver)
	fmt.Fprint(out, "received: ")
	for _, it := range recv.Got {
		fmt.Fprintf(out, "%v ", it.V)
	}
	fmt.Fprintln(out)
	if !recv.InOrder() || len(recv.Got) != len(items) {
		return fmt.Errorf("FIFO order violated")
	}
	fmt.Fprintln(out, "in-order delivery verified under unbounded delay growth")
	return nil
}
