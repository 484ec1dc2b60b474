// Command abccheck verifies a recorded trace (JSON, as written by
// cmd/abcsim) against the synchrony conditions of the models implemented
// in this repository: the ABC condition for a given Ξ, the static and
// dynamic Θ-Model conditions, and ParSync(Φ, Δ). It exits 1 when the
// requested ABC check fails and 2 on usage or input errors.
//
// Usage:
//
//	abccheck -xi 2 [-theta 3] [-phi 10 -delta 10] trace.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/causality"
	"repro/internal/check"
	"repro/internal/parsync"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/theta"
	"repro/internal/variants"
)

// errInadmissible distinguishes a sound check with a negative verdict
// (exit 1) from infrastructure failures (exit 2).
var errInadmissible = errors.New("trace is not ABC-admissible")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// Usage already printed by the FlagSet; -h is not a failure.
	case errors.Is(err, errInadmissible):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "abccheck:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("abccheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		xiStr    = fs.String("xi", "2", "ABC parameter Ξ (rational)")
		thetaStr = fs.String("theta", "", "also check the Θ-Model for this Θ")
		phi      = fs.Int("phi", 0, "also check ParSync with this Φ (needs -delta)")
		delta    = fs.Int("delta", 0, "ParSync Δ")
		gst      = fs.Bool("gst", false, "also locate the ◇ABC stabilization index")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: abccheck [flags] trace.json")
	}

	file, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer file.Close()
	tr, err := sim.ReadJSON(file)
	if err != nil {
		return err
	}
	xi, err := rat.Parse(*xiStr)
	if err != nil {
		return err
	}

	g := causality.Build(tr, causality.Options{})
	fmt.Fprintf(stdout, "trace: %d processes, %d events, %d messages, %d graph nodes\n",
		tr.N, len(tr.Events), len(tr.Msgs), g.NumNodes())

	v, err := check.ABC(g, xi)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ABC(Ξ=%v): admissible=%v\n", xi, v.Admissible)
	if !v.Admissible {
		fmt.Fprintf(stdout, "  violating relevant cycle (|Z−|/|Z+| = %v):\n  %v\n",
			v.WitnessClass.Ratio(), *v.Witness)
	} else if ratio, found, err := check.MaxRelevantRatio(g); err != nil {
		return fmt.Errorf("ratio search: %w", err)
	} else if found {
		fmt.Fprintf(stdout, "  critical ratio: %v\n", ratio)
	}

	if *thetaStr != "" {
		th, err := rat.Parse(*thetaStr)
		if err != nil {
			return err
		}
		st := theta.CheckStatic(tr, th)
		dy := theta.CheckDynamic(tr, th)
		fmt.Fprintf(stdout, "Θ-Model(Θ=%v): static=%v dynamic=%v", th, st.Admissible, dy.Admissible)
		if !st.Admissible {
			fmt.Fprintf(stdout, " (static: %s)", st.Reason)
		}
		fmt.Fprintln(stdout)
	}
	if *phi > 0 {
		rep := parsync.Check(tr, *phi, *delta)
		fmt.Fprintf(stdout, "ParSync(Φ=%d, Δ=%d): admissible=%v", *phi, *delta, rep.Admissible)
		if !rep.Admissible {
			fmt.Fprintf(stdout, " (%s)", rep.Reason)
		}
		fmt.Fprintln(stdout)
	}
	if *gst {
		idx, ok, err := variants.FindGST(tr, xi)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "◇ABC: stabilization at event index %d (ok=%v)\n", idx, ok)
	}

	if !v.Admissible {
		return errInadmissible
	}
	return nil
}
