//go:build race

package serve

// raceEnabled reports a race-detector build. Its sync.Pool drops a
// random quarter of Puts on purpose, so allocation counts that rest on
// pooled buffers being reused are not a property of the code there.
const raceEnabled = true
