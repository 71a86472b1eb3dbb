package server

import "time"

// TestModel hands the package's deterministic test network to the
// external test package (the conformance test imports internal/cluster,
// which an in-package test cannot).
var TestModel = testModel

// SetStepInjectTimeout shortens how long a step's inject barrier holds
// a request before answering 504, and returns the function that puts
// the shipped value back.
func SetStepInjectTimeout(d time.Duration) (restore func()) {
	old := stepInjectTimeout
	stepInjectTimeout = d
	return func() { stepInjectTimeout = old }
}
