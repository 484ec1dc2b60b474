// Perfect failure detection from the ABC synchrony condition — the Fig. 3
// mechanism. The monitor queries a target and ping-pongs with a partner;
// if the 2Ξ-message chain completes before the target's reply, a later
// reply would close a relevant cycle with ratio >= Ξ, which the model
// forbids — so the target must have crashed.
//
// The example runs the detector against (a) a crashed target, which is
// suspected, and (b) a slow-but-correct target, which is not — and then
// shows what goes wrong outside the model: with an inadmissible schedule
// the detector wrongly suspects, and the checker pinpoints the violating
// cycle.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	abc "repro"
)

func runDetector(faults map[abc.ProcessID]abc.Fault, delays abc.DelayPolicy, seed int64) (*abc.FailureMonitor, *abc.Trace, error) {
	xi := abc.RatInt(2)
	res, err := abc.Simulate(abc.Config{
		N: 3,
		Spawn: func(p abc.ProcessID) abc.Process {
			if p == 0 {
				return &abc.FailureMonitor{
					Partner:  1,
					Targets:  []abc.ProcessID{2},
					ChainLen: abc.TimeoutChainLen(xi),
				}
			}
			return abc.Responder{}
		},
		Faults:    faults,
		Delays:    delays,
		Seed:      seed,
		MaxEvents: 10000,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Procs[0].(*abc.FailureMonitor), res.Trace, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	xi := abc.RatInt(2)
	normal := abc.UniformDelay{Min: abc.RatInt(1), Max: abc.NewRat(3, 2)}

	// (a) Crashed target: completeness.
	m, _, err := runDetector(map[abc.ProcessID]abc.Fault{2: abc.Silent()}, normal, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "crashed target suspected: %v\n", m.Suspects(2))

	// (b) Correct target under admissible delays: accuracy.
	m, tr, err := runDetector(nil, normal, 2)
	if err != nil {
		return err
	}
	g := abc.BuildGraph(tr)
	v, err := abc.Check(g, xi)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "correct target suspected: %v (execution admissible: %v)\n",
		m.Suspects(2), v.Admissible)
	if m.Suspects(2) {
		return fmt.Errorf("accuracy violated in an admissible execution")
	}

	// (c) Outside the model: the reply crawls while the chain races. The
	// detector wrongly suspects — and the checker proves the schedule
	// violated Ξ, exhibiting the Fig. 3 cycle.
	slowReply := abc.OverrideDelay{
		Base: abc.ConstantDelay{D: abc.RatInt(1)},
		Match: func(msg abc.Message) bool {
			_, isReply := msg.Payload.(abc.DetectorReply)
			return isReply
		},
		Override: abc.ConstantDelay{D: abc.RatInt(50)},
	}
	m, tr, err = runDetector(nil, slowReply, 3)
	if err != nil {
		return err
	}
	g = abc.BuildGraph(tr)
	v, err = abc.Check(g, xi)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\noutside the model: suspected=%v, admissible=%v\n", m.Suspects(2), v.Admissible)
	if !v.Admissible {
		fmt.Fprintf(out, "violating relevant cycle (|Z−|/|Z+| = %v):\n  %v\n",
			v.WitnessClass.Ratio(), *v.Witness)
	}
	fmt.Fprintln(out, "\nthe timeout is exactly as strong as the synchrony condition — Fig. 3 reproduced")
	return nil
}
