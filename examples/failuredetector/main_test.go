package main

import (
	"strings"
	"testing"
)

// TestFailureDetector smoke-tests the Fig. 3 example through the public
// facade alone: a crashed target is suspected, a correct one is not in an
// admissible execution, and outside the model the checker exhibits the
// violating cycle of ratio 2.
func TestFailureDetector(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"crashed target suspected: true",
		"correct target suspected: false (execution admissible: true)",
		"outside the model: suspected=true, admissible=false",
		"violating relevant cycle (|Z−|/|Z+| = 2):",
		"Fig. 3 reproduced",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
