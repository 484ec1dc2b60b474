package main

import (
	"strings"
	"testing"
)

// TestConsensus smoke-tests the EIG example through the public facade
// alone: one silent and one equivocating Byzantine process, lock-step
// rounds verified, and every correct process deciding the same value.
func TestConsensus(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"process  input  decision",
		"   p5      0    (faulty)",
		"   p6      1    (faulty)",
		"agreement, validity and termination verified",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
