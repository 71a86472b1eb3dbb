package main

import "testing"

// TestRun runs the example, whose run fails unless its stated outcome
// holds: the detector array reports each sweep's direction.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
