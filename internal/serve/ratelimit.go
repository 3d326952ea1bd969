package serve

import (
	"sort"
	"sync"
	"time"
)

// maxTrackedClients bounds the limiter's memory against client-ID churn
// (a producer fleet rolling its identifiers). At the bound the idlest
// quarter of the table is evicted — churning one-shot identities age
// out while steadily-sending clients keep their bucket state, so a
// burst of strangers can no longer reset every honest client's spent
// tokens the way a full table wipe used to.
const maxTrackedClients = 16384

// rateLimiter is a per-client token bucket in samples (not requests):
// a client sending huge batches spends tokens proportionally, so the
// limit is on ingest volume, the resource that actually saturates the
// estimation workers.
type rateLimiter struct {
	rate       float64 // tokens (samples) per second per client
	burst      float64 // bucket capacity
	maxClients int     // table bound; tests shrink it to force eviction
	mu         sync.Mutex
	m          map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// newRateLimiter returns nil when rate is non-positive: a nil limiter
// admits everything, so the unlimited path costs nothing.
func newRateLimiter(rate, burst float64) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < rate {
		burst = rate
	}
	return &rateLimiter{rate: rate, burst: burst, maxClients: maxTrackedClients, m: make(map[string]*tokenBucket)}
}

// allow spends n tokens from client's bucket at time now, reporting
// whether the client is within its rate.
func (l *rateLimiter) allow(client string, n float64, now time.Time) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.m[client]
	if b == nil {
		if len(l.m) >= l.maxClients {
			l.evictIdleLocked()
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.m[client] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// evictIdleLocked drops the least-recently-touched quarter of the
// table (at least one entry). O(n log n) on a full table, but the
// table only fills under sustained identity churn and the evicted
// quarter buys thousands of admissions before the next sort.
func (l *rateLimiter) evictIdleLocked() {
	type idle struct {
		client string
		last   time.Time
	}
	all := make([]idle, 0, len(l.m))
	for c, b := range l.m {
		all = append(all, idle{c, b.last})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].last.Before(all[j].last) })
	drop := len(all) / 4
	if drop < 1 {
		drop = 1
	}
	for _, e := range all[:drop] {
		delete(l.m, e.client)
	}
}
