package serve

import (
	"context"
	"testing"
	"time"

	"trickledown/internal/align"
)

// replayDataset fabricates an aligned dataset of n one-second samples.
func replayDataset(n int) *align.Dataset {
	ds := &align.Dataset{}
	for i := 0; i < n; i++ {
		ds.Rows = append(ds.Rows, align.Row{
			Counters: mkSample(float64(i+1), 2, uint64(i)),
		})
	}
	return ds
}

func TestIngestDatasetDrains(t *testing.T) {
	s, err := New(Config{Estimator: testEstimator(t), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close(context.Background())

	ds := replayDataset(100)
	sent, err := s.IngestDataset(context.Background(), "replayer", "node-a", ds, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sent != 100 {
		t.Fatalf("sent %d of 100", sent)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.SamplesEstimated >= 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain timed out: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	np, ok := s.NodePower("node-a")
	if !ok {
		t.Fatal("node-a unknown after ingest")
	}
	if np.Samples != 100 || np.LastTargetSeconds != 100 {
		t.Fatalf("node view %+v", np)
	}
	if len(np.Power) == 0 || np.Power["Total"] <= 0 {
		t.Fatalf("no power estimate: %+v", np.Power)
	}
}

func TestIngestDatasetRetriesBackpressure(t *testing.T) {
	// One worker, tiny queue and batches: the loop must survive
	// ErrQueueFull by retrying rather than dropping rows.
	s, err := New(Config{Estimator: testEstimator(t), Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close(context.Background())

	ds := replayDataset(64)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sent, err := s.IngestDataset(ctx, "replayer", "node-b", ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sent != 64 {
		t.Fatalf("sent %d of 64", sent)
	}
}

func TestIngestDatasetContextCancel(t *testing.T) {
	s, err := New(Config{Estimator: testEstimator(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Close(context.Background()) // closed server rejects ingest

	ds := replayDataset(8)
	if _, err := s.IngestDataset(context.Background(), "replayer", "node-c", ds, 4); err == nil {
		t.Fatal("ingest into closed server succeeded")
	}
}
