package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"trickledown/internal/perfctr"
	"trickledown/internal/telemetry"
	"trickledown/internal/tracez"
)

// maxBodyBytes bounds an ingest request body. Sized for a maxBatch of
// large (32-CPU) samples with slack; anything bigger is hostile or
// misconfigured and gets 413 before decode allocates for it.
const maxBodyBytes = 64 << 20

// retryAfter is the Retry-After a 429 advertises, in whole seconds:
// the header is integer seconds, and advertising 0 invites an instant
// retry storm from naive producers.
const retryAfter = "1"

// maxPooledBody is the largest body buffer bodyPool keeps, and the most
// storage a decoder in decoderPool may retain. Typical batches are tens
// of KiB; what a rare huge one grew is dropped rather than pinning
// megabytes in a pool.
const maxPooledBody = 1 << 20

// bodyPool recycles ingest body buffers between requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decoderPool recycles the decoders whose storage admitted batches are
// carved from. A batch carries its decoder to the worker, which returns
// it once the batch is estimated; a rejected batch returns it at once.
var decoderPool = sync.Pool{New: func() any { return new(perfctr.Decoder) }}

// putDecoder returns d to decoderPool unless it is nil or its storage
// grew past maxPooledBody.
func putDecoder(d *perfctr.Decoder) {
	if d != nil && d.RetainedBytes() <= maxPooledBody {
		decoderPool.Put(d)
	}
}

// readBody reads an ingest body into a pooled buffer under
// http.MaxBytesReader. The buffer grows only as bytes arrive: a
// declared Content-Length never sizes it, so a client that sends
// headers and stalls pins no memory for the length it claimed. A
// declared length over maxBodyBytes is refused before any read. The
// caller hands the buffer to putBody once it is done with its bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		putBody(buf)
		return nil, err
	}
	return buf, nil
}

// putBody returns a body buffer to bodyPool unless it grew past
// maxPooledBody.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// Handler returns the server's HTTP surface:
//
//	POST /ingest   perfctr wire-format batch (TDS1); client identity
//	               from X-Client-ID, falling back to the remote address
//	GET  /power    one node's live power (?node=NAME)
//	GET  /fleet    cross-node aggregate with degradation flags
//	GET  /statz    machine-readable service stats (the loadgen contract)
//	GET  /driftz   self-healing adaptation status (404 until -adapt)
//	GET  /healthz  liveness
//	/metrics, /debug/telemetry, /debug/vars via internal/telemetry
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/power", s.handlePower)
	mux.HandleFunc("/fleet", s.handleFleet)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/driftz", s.handleDriftz)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// The telemetry mux owns /metrics and /debug/*; delegating the paths
	// keeps one exposition implementation process-wide. /debug/tracez is
	// the more specific pattern, so it wins over the /debug/ delegate.
	tm := telemetry.Handler()
	mux.Handle("/metrics", tm)
	mux.Handle("/debug/", tm)
	mux.Handle("/debug/tracez", s.rec.Handler())
	return mux
}

// handleIngest is the wire entry point: decode, admit, 202. Overload
// and rate limiting answer 429 with Retry-After so producers have an
// explicit backoff contract instead of guessing from timeouts.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// ARRIVED is stamped before the body is read, so the admission stage
	// and e2e include the read and the decode.
	arrived := time.Now()
	body, err := readBody(w, r)
	if err != nil {
		// Only the size limit means "too large"; a body cut short of its
		// Content-Length (a client abort, say) is a bad request.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "unreadable body: "+err.Error(), http.StatusBadRequest)
		}
		return
	}
	// Decode copies everything out of body into the decoder's storage,
	// so the buffer goes back to the pool as soon as it returns. The
	// decoder rides with the batch until a worker has estimated it.
	dec := decoderPool.Get().(*perfctr.Decoder)
	node, samples, ext, rails, err := dec.Decode(body.Bytes())
	decoded := time.Now()
	putBody(body)
	if err != nil {
		putDecoder(dec)
		http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	mDecode.Observe(decoded.Sub(arrived).Seconds())
	client := r.Header.Get("X-Client-ID")
	if client == "" {
		client = r.RemoteAddr
	}
	// A producer-stamped trace context wins (same ID on both sides of
	// the wire); admit mints one for batches without.
	tc := tracez.Context{ID: tracez.TraceID(ext.ID), Sampled: ext.Sampled}
	switch err := s.admit(client, &batch{node: node, samples: samples, rails: rails, tc: tc, dec: dec, arrived: arrived, decoded: decoded}); {
	case err == nil:
		w.WriteHeader(http.StatusAccepted)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited):
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrBatchTooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handlePower(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("node")
	if name == "" {
		http.Error(w, "missing ?node=", http.StatusBadRequest)
		return
	}
	np, ok := s.NodePower(name)
	if !ok {
		http.Error(w, "unknown node", http.StatusNotFound)
		return
	}
	writeJSON(w, np)
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Fleet())
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// handleDriftz exposes the self-healing manager's state; 404 until an
// adapter is installed so scrapers can distinguish "off" from "idle".
func (s *Server) handleDriftz(w http.ResponseWriter, r *http.Request) {
	ad := s.adapter.Load()
	if ad == nil {
		http.Error(w, "adaptation not enabled", http.StatusNotFound)
		return
	}
	writeJSON(w, ad.Status())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
