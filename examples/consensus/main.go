// Byzantine consensus over simulated lock-step rounds — the paper's
// headline consequence: because the ABC model implements lock-step rounds
// (Algorithm 2, Theorem 5), any synchronous Byzantine consensus algorithm
// runs unchanged on a purely asynchronous system that merely satisfies the
// bounded-cycle condition.
//
// Here: EIG consensus, n = 7, f = 2, one silent Byzantine process and one
// that equivocates round payloads (tells even-numbered recipients one
// value and odd-numbered recipients another).
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
	const n, f = 7, 2
	model := abc.MustModel(abc.NewRat(2, 1))
	inputs := []int{1, 0, 1, 0, 1, 0, 1}

	faults := map[abc.ProcessID]abc.Fault{
		6: abc.Silent(),
		5: abc.ByzantineFault(abc.NewTwoFaced(model, n, f,
			abc.SplitEIG(n, 5, 0, 1))),
	}

	res, err := abc.Simulate(abc.Config{
		N: n,
		Spawn: abc.LockStepSpawner(model, n, f, func(p abc.ProcessID) abc.App {
			return abc.NewEIG(n, f, inputs[p])
		}),
		Faults:    faults,
		Delays:    abc.UniformDelay{Min: abc.RatInt(1), Max: abc.NewRat(3, 2)},
		Seed:      11,
		Until:     abc.RoundsReached(abc.EIGRounds(f), faults),
		MaxEvents: 500000,
	})
	if err != nil {
		return err
	}

	// Theorem 5: no correct process started a round without the round
	// messages of all correct peers.
	if err := abc.CheckLockStep(res.Procs, faults); err != nil {
		return fmt.Errorf("lock-step property violated: %w", err)
	}

	fmt.Fprintln(out, "process  input  decision")
	deciders := make([]abc.Decider, n)
	init := make(map[abc.ProcessID]int)
	for i, v := range inputs {
		init[abc.ProcessID(i)] = v
	}
	for id := 0; id < n; id++ {
		if _, bad := faults[abc.ProcessID(id)]; bad {
			fmt.Fprintf(out, "   p%d      %d    (faulty)\n", id, inputs[id])
			continue
		}
		d := res.Procs[id].(*abc.LockStep).App().(abc.Decider)
		deciders[id] = d
		fmt.Fprintf(out, "   p%d      %d      %d\n", id, inputs[id], d.Decision())
	}

	spec := abc.ConsensusSpec{Initial: init, Faults: faults}
	if err := spec.Check(deciders); err != nil {
		return fmt.Errorf("consensus specification violated: %w", err)
	}
	fmt.Fprintln(out, "agreement, validity and termination verified")
	return nil
}
