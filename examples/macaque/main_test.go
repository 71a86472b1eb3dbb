package main

import "testing"

// TestRun runs the example, whose run fails unless its stated outcome
// holds: the LGN, the region the stimulus drives, receives the most spikes.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
