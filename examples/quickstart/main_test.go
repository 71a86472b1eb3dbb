package main

import "testing"

// TestRun runs the example, whose run fails unless its stated outcome
// holds: the serial reference and the parallel simulator agree spike for spike.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
