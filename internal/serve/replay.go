package serve

import (
	"context"
	"errors"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/perfctr"
	"trickledown/internal/tracez"
)

// IngestDataset streams an aligned dataset's counter samples into the
// server as node's live feed — the bridge that replays a recorded (or
// trace-replayed) machine run through the estimation service. Rows are
// chunked into batches of at most batch samples (0 or out-of-range
// means maxBatch); backpressure rejections (ErrQueueFull,
// ErrRateLimited) retry with a short pause until ctx expires, any other
// rejection aborts. Returns how many samples were admitted.
//
// Each batch gets a freshly allocated sample slice (the server owns a
// slice after a nil Ingest return); the samples themselves are shallow
// copies sharing the dataset's per-CPU counter slices, so the caller
// must not mutate ds while the server drains.
func (s *Server) IngestDataset(ctx context.Context, client, node string, ds *align.Dataset, batch int) (int, error) {
	if batch <= 0 || batch > maxBatch {
		batch = maxBatch
	}
	sent := 0
	for lo := 0; lo < len(ds.Rows); lo += batch {
		hi := lo + batch
		if hi > len(ds.Rows) {
			hi = len(ds.Rows)
		}
		samples := make([]perfctr.Sample, hi-lo)
		for i := range samples {
			samples[i] = ds.Rows[lo+i].Counters
		}
		for {
			err := s.Ingest(client, node, samples, nil, tracez.Context{})
			if err == nil {
				sent += len(samples)
				break
			}
			if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrRateLimited) {
				return sent, err
			}
			select {
			case <-ctx.Done():
				return sent, ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return sent, nil
}
