//go:build !race

package bench

// raceDetector reports whether the test binary is instrumented by the race
// detector. In a normal build it is not.
const raceDetector = false
