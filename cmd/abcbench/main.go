// Command abcbench regenerates the paper's evaluation: it runs every
// experiment E1–E18 (the figure/theorem suite plus the supplementary VLSI
// and related-models experiments) and prints a claim-vs-measured table per
// figure/theorem, exiting non-zero if any claim fails to reproduce.
// EXPERIMENTS.md is the recorded output of this command.
//
// The evaluation executes on the fleet runner (internal/runner): with
// -workers W the experiments run concurrently and each experiment's
// internal simulation batches fan out over W workers. Results are
// bit-identical for every width — -workers only changes wall-clock time.
//
// -cpuprofile and -memprofile write pprof profiles of the whole suite,
// for chasing engine-level regressions with real experiment traffic
// rather than microbenchmarks (`make bench CPUPROFILE=cpu.out`).
//
// Usage:
//
//	abcbench [-only E7] [-workers 8] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/runner"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// Usage already printed by the FlagSet; -h is not a failure.
	default:
		fmt.Fprintln(os.Stderr, "abcbench:", err)
		os.Exit(1)
	}
}

// outcome pairs one experiment's result with its error so a failing
// experiment does not abort the rest of the suite.
type outcome struct {
	res experiments.Result
	err error
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("abcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "print only the experiment with this ID (e.g. E7); the full suite still runs")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"fleet width: experiments and their internal simulation batches run on this many workers (results are identical for any width)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the suite to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile (after the suite) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "abcbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocations into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "abcbench: memprofile:", err)
			}
		}()
	}

	experiments.SetWorkers(*workers)
	defer experiments.SetWorkers(0)

	all := experiments.Everything()
	outcomes, err := runner.Map(context.Background(), len(all), *workers,
		func(i int) (outcome, error) {
			res, err := all[i]()
			return outcome{res: res, err: err}, nil
		})
	if err != nil {
		return err
	}

	failed := 0
	for _, o := range outcomes {
		if o.err != nil {
			fmt.Fprintf(stderr, "%s: error: %v\n", o.res.ID, o.err)
			failed++
			continue
		}
		if *only != "" && o.res.ID != *only {
			continue
		}
		fmt.Fprintf(stdout, "=== %s: %s\n", o.res.ID, o.res.Title)
		for _, r := range o.res.Rows {
			status := "ok"
			if !r.OK {
				status = "FAIL"
				failed++
			}
			fmt.Fprintf(stdout, "  [%-4s] %-28s paper: %-55s measured: %s\n", status, r.Name, r.Paper, r.Measured)
		}
		fmt.Fprintln(stdout)
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment rows failed", failed)
	}
	return nil
}
