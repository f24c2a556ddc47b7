//go:build !race

package leaktest

// RaceEnabled reports whether the test binary was built with -race, under
// which timing- and allocation-count assertions do not hold and skip.
const RaceEnabled = false
