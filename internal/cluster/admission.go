// Package cluster implements the carbonfleet router: a front-end that
// shards jobs across a fleet of carbond workers, health-checks them,
// and re-homes a dead worker's jobs onto survivors from their last
// mirrored checkpoints.
package cluster

import (
	"math"
	"sync"
	"time"
)

// buckets is per-tenant token-bucket admission control. Every tenant
// owns an independent bucket refilling at its quota (or the default
// rate); a submission costs one token. When the bucket is dry the
// caller learns how long until the next token — the Retry-After the
// handler surfaces with the 429.
type buckets struct {
	rate  float64            // default tokens per second (0 = unlimited)
	burst float64            // bucket capacity
	quota map[string]float64 // per-tenant rate overrides

	mu  sync.Mutex
	m   map[string]*bucket
	now func() time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newBuckets(rate float64, burst int, quota map[string]float64, now func() time.Time) *buckets {
	if now == nil {
		now = time.Now
	}
	b := float64(burst)
	if b < 1 {
		b = math.Max(1, rate)
	}
	return &buckets{rate: rate, burst: b, quota: quota, m: make(map[string]*bucket), now: now}
}

// take spends one token from tenant's bucket. When the bucket is dry it
// reports false plus the wait until a token accrues (never below 1s —
// Retry-After is whole seconds and "0" would invite a busy-loop).
func (bs *buckets) take(tenant string) (bool, time.Duration) {
	rate := bs.rate
	if q, ok := bs.quota[tenant]; ok {
		rate = q
	}
	if rate <= 0 {
		return true, 0
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	now := bs.now()
	b := bs.m[tenant]
	if b == nil {
		b = &bucket{tokens: bs.burst, last: now}
		bs.m[tenant] = b
	}
	b.tokens = math.Min(bs.burst, b.tokens+now.Sub(b.last).Seconds()*rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return false, wait
}
