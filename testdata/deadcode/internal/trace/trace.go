// Package trace holds one declaration per case TestDeadFuncsFixture
// checks: the guard flags OnlyTests, Add and BenchOnly, and nothing
// else.
package trace

import "sync/atomic"

// Trace counts events.
type Trace struct{ hits atomic.Uint64 }

// Hit counts one event; the command calls it. Its call named Add is on
// an atomic.Uint64 and references no method of the module.
func (t *Trace) Hit() { t.hits.Add(1) }

// Add only tests call.
func (t *Trace) Add(n uint64) { t.hits.Store(t.hits.Load() + n) }

// String is exempt: fmt calls it.
func (t *Trace) String() string { return "trace" }

// Used is called by the command.
func Used() int { return 1 }

// OnlyTests only tests call.
func OnlyTests() int { return 2 }

// BenchOnly only benchmark/ calls.
func BenchOnly() int { return 3 }
