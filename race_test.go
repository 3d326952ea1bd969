//go:build race

package trickledown_test

// raceEnabled reports a race-detector build, which instruments every
// allocation path and drops sync.Pool puts at random, so its
// allocation counts are not the code's.
const raceEnabled = true
