//go:build race

package bench

// raceDetector reports whether the test binary is instrumented by the race
// detector, whose bookkeeping inflates what a check allocates (explore-opt:
// 280 MB in 3.46 M objects against 223 MB in 3.07 M) — an allocation ceiling
// sized for a plain build says nothing there.
const raceDetector = true

// raceBudgetScale stretches the slack a budgeted run is allowed past its
// deadline: instrumented code is an order of magnitude slower, so the work
// between two clock reads is too.
const raceBudgetScale = 15
