package serve

import (
	"errors"
	"sync"
	"time"

	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/tracez"
)

// batch is one ingest request moving through the request journey. It
// carries the journey's timestamps, and Server.fileTrace builds its
// trace from them once the journey is over:
//
//	ARRIVED   arrived    request received, before its body is read
//	DECODED   decoded    /ingest body read and decoded (zero in-process)
//	ADMITTED  admitted   admission control's clock reading
//	QUEUED    queued     handed to the bounded queue (depth ahead of it)
//	SCHEDULED scheduled  an estimation worker picked the batch up
//	DEPARTED  departed   estimates folded into node state, or the
//	                     batch shed
//
// ARRIVED→QUEUED is admission cost (on /ingest, the body read and
// decode too), QUEUED→SCHEDULED is queue wait (the overload signal),
// SCHEDULED→DEPARTED is batched estimation time, and ARRIVED→DEPARTED
// is the end-to-end latency the p99 budget is set on.
type batch struct {
	node    string
	client  string
	samples []perfctr.Sample
	// rails, when non-nil, is one measured power reading per sample (the
	// TDP1 wire extension) feeding the adapter's drift detection.
	rails     []power.Reading
	arrived   time.Time
	decoded   time.Time
	admitted  time.Time
	queued    time.Time
	scheduled time.Time
	departed  time.Time
	// depth is the queue backlog ahead of the batch at QUEUED; worker
	// and bad are the estimating worker and its quarantined sample count.
	depth, worker int
	bad           uint64
	// tc is the batch's trace identity (producer- or server-minted);
	// tc.Sampled says the head sampler elected to keep its trace.
	tc tracez.Context
	// dec, when non-nil, owns the storage samples and rails are carved
	// from. It goes back to decoderPool after the worker's runBatch
	// returns, or at once when the batch is not queued.
	dec *perfctr.Decoder
}

// errQueueClosed distinguishes shutdown from overload inside the queue;
// callers surface ErrClosed / ErrQueueFull respectively.
var errQueueClosed = errors.New("serve: queue closed")

// ingestQueue is the bounded spine of the server: a channel whose
// capacity is the explicit backpressure boundary. Enqueue never blocks —
// a full queue is an immediate, honest 429 to the producer rather than
// unbounded memory growth or silent latency.
type ingestQueue struct {
	mu     sync.RWMutex
	ch     chan *batch
	closed bool
}

func newIngestQueue(depth int) *ingestQueue {
	return &ingestQueue{ch: make(chan *batch, depth)}
}

// tryEnqueue admits b or reports why not (errQueueClosed, ErrQueueFull).
// The caller stamps b.queued before the send — after it, a worker may
// already own the batch.
func (q *ingestQueue) tryEnqueue(b *batch) error {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return errQueueClosed
	}
	select {
	case q.ch <- b:
		return nil
	default:
		return ErrQueueFull
	}
}

// close stops intake. Workers drain whatever is already queued and then
// see the channel close.
func (q *ingestQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}

// depth returns the number of queued batches.
func (q *ingestQueue) depth() int { return len(q.ch) }

// capacity returns the queue bound.
func (q *ingestQueue) capacity() int { return cap(q.ch) }
