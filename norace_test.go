//go:build !race

package trickledown_test

const raceEnabled = false
