package serve

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"trickledown/internal/faults"
	"trickledown/internal/perfctr"
	"trickledown/internal/tracez"
)

// slowFaults wraps a real faults.Injector and adds a fixed service-time
// cost per sample (charged on CPU 0), so a drill can push the server
// into genuine overload deterministically while the wrapped injector
// glitches counters exactly as a production fault plan would.
type slowFaults struct {
	inner   *faults.Injector
	perCall time.Duration
}

func (s *slowFaults) PerturbCounts(t float64, cpu int, c *perfctr.CPUCounts) {
	if cpu == 0 {
		time.Sleep(s.perCall)
	}
	s.inner.PerturbCounts(t, cpu, c)
}

// TestSheddingDrillUnderOverload is the ISSUE's overload drill: drive
// ~2x the server's capacity with a seeded CounterGlitch fault plan
// attached, and assert the failure mode is the designed one — bounded
// queue, explicit ErrQueueFull shedding, a degraded-flagged fleet
// aggregate, and never a NaN power number.
func TestSheddingDrillUnderOverload(t *testing.T) {
	plan := &faults.Plan{
		Seed: 42,
		Specs: []faults.Spec{{
			Kind:      faults.CounterGlitch,
			CPU:       -1,
			Magnitude: 0.5, // glitch half the samples
		}},
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan: %v", err)
	}

	const (
		batchN  = 8
		perCall = 500 * time.Microsecond // ~4ms per batch of 8
		sends   = 60
	)
	s, err := New(Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	s.SetFaultInjector(&slowFaults{inner: plan.Injector("drill-node"), perCall: perCall})

	// Send as fast as possible: with one worker at ~4ms/batch and no
	// pacing, the bounded queue must overflow quickly.
	var admitted, shed int
	maxDepth := 0
	for i := 0; i < sends; i++ {
		err := s.Ingest("drill", "drill-node", mkBatch(batchN, 2, float64(i*batchN)), nil, tracez.Context{})
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrQueueFull):
			shed++
		default:
			t.Fatalf("send %d: unexpected error %v", i, err)
		}
		if d := s.QueueDepth(); d > maxDepth {
			maxDepth = d
		}
	}

	if shed == 0 {
		t.Fatal("overload drill shed nothing: backpressure never engaged")
	}
	if admitted == 0 {
		t.Fatal("overload drill admitted nothing")
	}
	if maxDepth > 4 {
		t.Errorf("queue depth reached %d, bound is 4: queue growth is not bounded", maxDepth)
	}
	if !s.SheddingActive() {
		t.Error("SheddingActive = false immediately after queue_full rejections")
	}

	// Mid-overload the fleet view must be degraded but never NaN.
	fleet := s.Fleet()
	if !fleet.Degraded || !fleet.SheddingActive {
		t.Errorf("fleet degraded=%v shedding=%v during drill, want true/true", fleet.Degraded, fleet.SheddingActive)
	}
	for k, v := range fleet.Power {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("fleet %s = %v under overload: non-finite power escaped", k, v)
		}
	}

	// Graceful close drains every admitted batch; the books balance.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := s.Stats()
	if st.SamplesIngested != uint64(admitted*batchN) {
		t.Errorf("ingested %d, want %d", st.SamplesIngested, admitted*batchN)
	}
	if st.SamplesEstimated != uint64(admitted*batchN) {
		t.Errorf("estimated %d, want all %d admitted", st.SamplesEstimated, admitted*batchN)
	}
	if st.SamplesShed != uint64(shed*batchN) {
		t.Errorf("shed %d, want %d", st.SamplesShed, shed*batchN)
	}
	np, ok := s.NodePower("drill-node")
	if !ok {
		t.Fatal("drill-node not tracked")
	}
	total := np.Power["Total"]
	if math.IsNaN(total) || math.IsInf(total, 0) {
		t.Errorf("node total %v after glitched drill, want finite", total)
	}
}
