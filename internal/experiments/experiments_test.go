package experiments

import (
	"context"
	"reflect"
	"testing"
)

// TestAllExperimentsReproduce runs the full E1–E15 suite — the entire
// paper evaluation — and fails on the first claim that does not reproduce.
// Skipped under -short: the suite runs many simulations (it is also
// exercised by cmd/abcbench and the root benchmarks).
func TestAllExperimentsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite skipped in -short mode")
	}
	all := append(All(), RunVLSI)
	for _, exp := range all {
		res, err := exp()
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		for _, r := range res.Rows {
			if !r.OK {
				t.Errorf("%s/%s: paper claims %q, measured %q", res.ID, r.Name, r.Paper, r.Measured)
			}
		}
		t.Logf("%s: %s — %d rows ok", res.ID, res.Title, len(res.Rows))
	}
}

// TestRunAllWidthIndependent pins the fleet guarantee at the evaluation
// level: the complete E1–E18 suite produces identical Rows whether the
// experiments (and their internal simulation batches) run serially or
// across 4 workers. Skipped under -short for the same reason as the full
// suite above.
func TestRunAllWidthIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite skipped in -short mode")
	}
	SetWorkers(1)
	serial, err := RunAll(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(4)
	defer SetWorkers(0)
	parallel, err := RunAll(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: rows differ between 1 and 4 workers:\nserial:   %+v\nparallel: %+v",
				serial[i].ID, serial[i], parallel[i])
		}
	}
	for _, r := range serial {
		for _, row := range r.Rows {
			if !row.OK {
				t.Errorf("%s/%s failed", r.ID, row.Name)
			}
		}
	}
}
