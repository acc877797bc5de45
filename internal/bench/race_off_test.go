//go:build !race

package bench

// raceDetector reports whether the test binary is instrumented by the race
// detector. In a normal build it is not.
const raceDetector = false

// raceBudgetScale stretches budget slack under the race detector; in a
// normal build it is 1.
const raceBudgetScale = 1
