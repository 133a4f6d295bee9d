package fft

import "testing"

// UseBluesteinOnly makes NewPlan and NewRealPlan build the chirp-z reference
// for every length until the test ends. Tests that use it must not run in
// parallel with tests that build plans.
func UseBluesteinOnly(t testing.TB) {
	bluesteinOnly = true
	t.Cleanup(func() { bluesteinOnly = false })
}
