//go:build race

package core

// raceEnabled reports a race-detector build. Its sync.Pool drops a
// random quarter of Puts on purpose, so allocation counts that rest on
// pooled scratch being reused are not a property of the code there.
const raceEnabled = true
