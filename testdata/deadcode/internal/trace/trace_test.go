package trace

import "testing"

func TestTrace(t *testing.T) {
	var tr Trace
	tr.Add(uint64(OnlyTests()))
	if got := tr.hits.Load(); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
}
