package tenant

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrThrottled is the distinct shed signal for over-quota tenants, so
// clients and telemetry can tell quota throttling (back off, don't
// retry hot) from genuine overload or failure (failover/retry).
var ErrThrottled = errors.New("tenant: throttled (rate quota exceeded)")

// TokenBucket is a deterministic, clock-abstracted token bucket:
// callers pass the current time explicitly, so the same bucket works
// on the wall clock (gateway) and on simulated virtual time
// (experiments) with bit-identical decisions. Not safe for concurrent
// use — Admission adds the locking.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Duration
}

// NewTokenBucket builds a bucket refilled at rate tokens/sec with the
// given capacity. The bucket starts full. rate and burst must be
// positive.
func NewTokenBucket(rate, burst float64) (*TokenBucket, error) {
	if rate <= 0 || burst <= 0 {
		return nil, fmt.Errorf("tenant: token bucket rate %v and burst %v must be positive", rate, burst)
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}, nil
}

// Allow consumes one token if available at time now, reporting whether
// the request is admitted. now must be monotonically non-decreasing
// across calls; an earlier now refills nothing.
func (b *TokenBucket) Allow(now time.Duration) bool {
	if now > b.last {
		b.tokens += b.rate * (now - b.last).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Admission is the gateway-edge admission controller: one token bucket
// per rate-limited tenant. Tenants without a rate quota are always
// admitted. Safe for concurrent use.
type Admission struct {
	mu      sync.Mutex
	buckets map[uint32]*TokenBucket
	names   map[uint32]string
	shed    map[uint32]uint64
}

// NewAdmission builds an empty admission controller.
func NewAdmission() *Admission {
	return &Admission{
		buckets: make(map[uint32]*TokenBucket),
		names:   make(map[uint32]string),
		shed:    make(map[uint32]uint64),
	}
}

// SetQuota installs (or replaces) a tenant's rate quota. A
// non-positive RatePerSec removes any existing bucket, making the
// tenant unlimited. Burst defaults to RatePerSec when unset.
func (a *Admission) SetQuota(t *Tenant) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.names[t.ID] = t.Name
	if t.Quota.RatePerSec <= 0 {
		delete(a.buckets, t.ID)
		return nil
	}
	burst := t.Quota.Burst
	if burst <= 0 {
		burst = t.Quota.RatePerSec
	}
	b, err := NewTokenBucket(t.Quota.RatePerSec, burst)
	if err != nil {
		return err
	}
	a.buckets[t.ID] = b
	return nil
}

// Admit decides one request for a tenant at time now. Over-quota
// requests return an error wrapping ErrThrottled that names the
// tenant.
func (a *Admission) Admit(tenantID uint32, now time.Duration) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[tenantID]
	if !ok || b.Allow(now) {
		return nil
	}
	a.shed[tenantID]++
	name := a.names[tenantID]
	if name == "" {
		name = fmt.Sprintf("#%d", tenantID)
	}
	return fmt.Errorf("%w: tenant %s", ErrThrottled, name)
}

// Quotas snapshots the tenants known to the controller (ID → name) —
// the series set for per-tenant metric exposition. Tenants whose
// bucket was removed stay listed; their shed count simply stops
// growing.
func (a *Admission) Quotas() map[uint32]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[uint32]string, len(a.names))
	for id, name := range a.names {
		out[id] = name
	}
	return out
}

// Shed returns how many requests have been throttled for a tenant.
func (a *Admission) Shed(tenantID uint32) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shed[tenantID]
}

// TotalShed returns the throttle count summed over all tenants.
func (a *Admission) TotalShed() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n uint64
	for _, v := range a.shed {
		n += v
	}
	return n
}
