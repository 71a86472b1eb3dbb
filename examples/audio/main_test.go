package main

import "testing"

// TestRun runs the example, whose run fails unless its stated outcome
// holds: all three sound classes are recognised from spike timing.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
