// VLSI Systems-on-Chip clock generation (Section 5.3): DARTS-style
// fault-tolerant tick generation is Algorithm 1 running over a chip whose
// wire delays come from place-and-route. The example demonstrates the
// paper's re-use argument: migrating the design to a 3x faster process
// node preserves Ξ, admissibility, and the precision bound without any
// change to the algorithm — the property that let DARTS move from FPGA to
// ASIC unchanged.
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
	xi := abc.NewRat(2, 1)
	const n, f = 4, 1

	// A 4-module chip: heterogeneous wires from place-and-route.
	chip, err := abc.NewChip(n, abc.RatInt(1), abc.NewRat(3, 2))
	if err != nil {
		return err
	}
	// The diagonal wires are longer.
	if err := chip.SetWire(0, 3, abc.NewRat(5, 4), abc.NewRat(15, 8)); err != nil {
		return err
	}
	if err := chip.SetWire(3, 0, abc.NewRat(5, 4), abc.NewRat(15, 8)); err != nil {
		return err
	}

	report, err := abc.RunClockGeneration(chip, xi, f, 12, map[abc.ProcessID]abc.Fault{
		2: abc.Silent(), // one fab defect: a dead module
	}, 9)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "original node: admissible=%v precision-ok=%v max-tick=%d critical-ratio=%v\n",
		report.Admissible, report.PrecisionOK, report.MaxTick, report.CriticalRatio)
	if !report.Admissible || !report.PrecisionOK {
		return fmt.Errorf("clock generation failed on the original node")
	}

	// Technology migration: all wires 3x faster.
	faster, err := chip.Migrate(abc.NewRat(1, 3))
	if err != nil {
		return err
	}
	report2, err := abc.RunClockGeneration(faster, xi, f, 12, map[abc.ProcessID]abc.Fault{
		2: abc.Silent(),
	}, 9)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "migrated node: admissible=%v precision-ok=%v max-tick=%d critical-ratio=%v\n",
		report2.Admissible, report2.PrecisionOK, report2.MaxTick, report2.CriticalRatio)
	if !report2.Admissible || !report2.PrecisionOK {
		return fmt.Errorf("clock generation failed after migration")
	}
	if !report.CriticalRatio.Equal(report2.CriticalRatio) {
		return fmt.Errorf("migration changed the critical ratio — Ξ re-validation would be required")
	}
	fmt.Fprintln(out, "technology migration preserved Ξ: no algorithm change needed")
	return nil
}
