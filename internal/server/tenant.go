package server

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// TenantLimits caps what one tenant (the X-Tenant request header; empty
// means "default") may hold and spend. The zero value is fully
// unlimited — multi-tenancy is opt-in per deployment, and a server
// without limits behaves exactly as before.
type TenantLimits struct {
	// MaxInFlight caps a tenant's admitted-but-unfinished jobs, queued
	// or running (<=0: unlimited).
	MaxInFlight int
	// MaxQueued caps the tenant's jobs waiting for a worker (<=0:
	// unlimited).
	MaxQueued int
	// SeedsPerSec is the token-bucket refill rate in seed units per
	// second: a campaign/difftest admission charges its seed count,
	// point jobs charge one (<=0: unlimited).
	SeedsPerSec float64
	// SeedBurst is the bucket capacity — how many seed units a tenant
	// may spend at once after idling (<=0: 4 seconds of refill).
	SeedBurst float64
}

// admissionCost is a job's token price in seed units.
func admissionCost(r *Request) float64 {
	if sweeps[r.Type] == nil {
		return 1 // program-run / figure-sweep: one engine boot
	}
	return float64(r.Seeds)
}

// tenantState is one tenant's live accounting: two gauges moved
// exactly once per transition (admit -> queued, dequeue -> running,
// finish -> gone), the token bucket, and the admission counters.
type tenantState struct {
	queued, running    int
	tokens             float64
	lastRefill         time.Time
	admitted, rejected uint64
}

// tenantRegistry holds per-tenant state under one lock. Admission
// checks, token charges, and gauge transitions are all atomic with
// respect to each other; Server.admit calls it under s.mu so the
// charge is also atomic with the queue-capacity check.
type tenantRegistry struct {
	mu     sync.Mutex
	limits TenantLimits
	m      map[string]*tenantState
	now    func() time.Time // test seam
}

func newTenantRegistry(limits TenantLimits) *tenantRegistry {
	return &tenantRegistry{limits: limits, m: map[string]*tenantState{}, now: time.Now}
}

func (r *tenantRegistry) state(name string) *tenantState {
	t := r.m[name]
	if t == nil {
		t = &tenantState{tokens: r.burst(), lastRefill: r.now()}
		r.m[name] = t
	}
	return t
}

func (r *tenantRegistry) burst() float64 {
	if r.limits.SeedBurst > 0 {
		return r.limits.SeedBurst
	}
	return r.limits.SeedsPerSec * 4
}

// admit charges one admission against the tenant's quotas. On success
// the job is accounted as queued. On rejection it returns the seconds
// a client should wait before retrying and a client-facing reason.
func (r *tenantRegistry) admit(name string, cost float64) (retryAfter int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.state(name)
	if lim := r.limits.MaxInFlight; lim > 0 && t.queued+t.running >= lim {
		t.rejected++
		return retryAfterSeconds, fmt.Errorf("tenant %q at max in-flight jobs (%d)", name, lim)
	}
	if lim := r.limits.MaxQueued; lim > 0 && t.queued >= lim {
		t.rejected++
		return retryAfterSeconds, fmt.Errorf("tenant %q at max queued jobs (%d)", name, lim)
	}
	if rate := r.limits.SeedsPerSec; rate > 0 {
		now := r.now()
		t.tokens = math.Min(t.tokens+now.Sub(t.lastRefill).Seconds()*rate, r.burst())
		t.lastRefill = now
		if t.tokens < cost {
			t.rejected++
			wait := int(math.Ceil((cost - t.tokens) / rate))
			if wait < 1 {
				wait = 1
			}
			return wait, fmt.Errorf("tenant %q over %g seeds/s (job costs %g seeds, %.1f banked)",
				name, rate, cost, t.tokens)
		}
		t.tokens -= cost
	}
	t.queued++
	t.admitted++
	return 0, nil
}

// release rolls back an admission that failed after the quota charge
// (journal error): the queued slot returns; spent tokens stay spent —
// the journal attempt consumed real work.
func (r *tenantRegistry) release(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.m[name]; t != nil && t.queued > 0 {
		t.queued--
	}
}

// adopt accounts a journal-resumed job as queued WITHOUT charging
// tokens: the admission token was spent in the job's first life, and a
// crash must not double-bill the tenant.
func (r *tenantRegistry) adopt(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.state(name)
	t.queued++
	t.admitted++
}

// start moves one job from queued to running (a worker dequeued it).
func (r *tenantRegistry) start(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.state(name)
	if t.queued > 0 {
		t.queued--
	}
	t.running++
}

// done retires one running job.
func (r *tenantRegistry) done(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.m[name]; t != nil && t.running > 0 {
		t.running--
	}
}

// drop retires one queued job that will never run (Kill's sweep).
func (r *tenantRegistry) drop(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.m[name]; t != nil && t.queued > 0 {
		t.queued--
	}
}

// TenantSnapshot is one tenant's /metrics view.
type TenantSnapshot struct {
	Queued   int     `json:"queued"`
	Running  int     `json:"running"`
	Admitted uint64  `json:"admitted_total"`
	Rejected uint64  `json:"rejected_total"`
	Tokens   float64 `json:"tokens"`
}

// snapshot copies every tenant's state.
func (r *tenantRegistry) snapshot() map[string]TenantSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]TenantSnapshot, len(r.m))
	for name, t := range r.m {
		out[name] = TenantSnapshot{
			Queued: t.queued, Running: t.running,
			Admitted: t.admitted, Rejected: t.rejected,
			Tokens: t.tokens,
		}
	}
	return out
}
