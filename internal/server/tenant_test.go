package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestTenantInFlightQuota: one tenant saturating its in-flight cap gets
// 429 with a Retry-After hint while another tenant sails through —
// isolation is per X-Tenant key, not global.
func TestTenantInFlightQuota(t *testing.T) {
	s, base, release := hold(t, Config{
		Workers: 4, QueueDepth: 8,
		Tenants: TenantLimits{MaxInFlight: 1},
	})

	// Each admitted job is held open; its stream is read once released.
	results := make(chan streamed, 2)
	admit := func(tenant string, seed int64) {
		t.Helper()
		resp := post(t, base, tenant, Request{Type: TypeProgramRun, Seed: seed})
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("%s job: status %d, want 200", tenant, resp.StatusCode)
		}
		go func() { results <- read(resp) }()
	}
	admit("acme", 1)
	waitMetric(t, "acme job running", func() bool { return s.tenants.snapshot()["acme"].Running == 1 })

	rej := read(post(t, base, "acme", Request{Type: TypeProgramRun, Seed: 2}))
	if rej.status != http.StatusTooManyRequests {
		t.Fatalf("second acme job: status %d, want 429 (%s)", rej.status, rej.output)
	}
	if rej.header.Get("Retry-After") == "" {
		t.Error("tenant rejection carried no Retry-After header")
	}
	if !strings.Contains(rej.output, `tenant "acme"`) {
		t.Errorf("rejection body %q does not name the tenant", rej.output)
	}

	// globex's quota is its own: admitted despite acme's rejection.
	admit("globex", 3)

	if got := s.snapshot().RejectedTenant; got != 1 {
		t.Errorf("RejectedTenant = %d, want 1", got)
	}
	// While the held jobs run, no gauge — global or per-tenant — may
	// read negative.
	if err := checkGauges(s.snapshot(), false); err != nil {
		t.Error(err)
	}
	release()
	for i := 0; i < 2; i++ {
		if st := <-results; !st.complete || !st.ok || st.output != heldOutput {
			t.Errorf("held tenant job did not finish cleanly: %+v", st)
		}
	}
	waitMetric(t, "jobs drained", func() bool { return s.snapshot().JobsOK == 2 })
	// Every gauge, global and per-tenant, back at exactly zero.
	if err := checkGauges(s.snapshot(), true); err != nil {
		t.Error(err)
	}

	// Gauges moved exactly once per transition: everything back to zero,
	// counters remember the history.
	snap := s.tenants.snapshot()
	for _, name := range []string{"acme", "globex"} {
		ts := snap[name]
		if ts.Queued != 0 || ts.Running != 0 {
			t.Errorf("tenant %q gauges queued=%d running=%d after drain, want 0/0", name, ts.Queued, ts.Running)
		}
		if ts.Admitted != 1 {
			t.Errorf("tenant %q admitted = %d, want 1", name, ts.Admitted)
		}
	}
	if snap["acme"].Rejected != 1 {
		t.Errorf("acme rejected = %d, want 1", snap["acme"].Rejected)
	}

	// The rendered /metrics page exposes the per-tenant series.
	resp, err := http.Get(base + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`uexc_tenant_admitted_total{tenant="acme"} 1`,
		`uexc_tenant_rejected_total{tenant="acme"} 1`,
		`uexc_tenant_admitted_total{tenant="globex"} 1`,
		"uexc_jobs_rejected_tenant_total 1",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics text missing %q", want)
		}
	}
}

// TestTenantTokenBucket drives the registry's clock directly: a sweep
// spends its seed cost, an immediate repeat is refused with an honest
// retry-after, and the bucket refills at SeedsPerSec.
func TestTenantTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	r := newTenantRegistry(TenantLimits{SeedsPerSec: 5, SeedBurst: 10})
	r.now = func() time.Time { return now }

	if wait, err := r.admit("acme", 10); err != nil {
		t.Fatalf("burst-sized admission refused: %v (wait %d)", err, wait)
	}
	wait, err := r.admit("acme", 10)
	if err == nil {
		t.Fatal("empty bucket admitted a second sweep")
	}
	if wait != 2 { // 10 seeds / 5 per sec
		t.Errorf("retry-after = %ds, want 2", wait)
	}
	now = now.Add(2 * time.Second)
	if _, err := r.admit("acme", 10); err != nil {
		t.Fatalf("refilled bucket still refusing: %v", err)
	}
	// Refill caps at the burst.
	now = now.Add(time.Hour)
	if wait, err := r.admit("acme", 11); err == nil || wait != 1 {
		t.Errorf("over-burst admission: err=%v wait=%d, want refusal with wait 1", err, wait)
	}

	// Two admissions succeeded above. Walk both out — plus stray extra
	// done/drop calls, which the guarded transitions must absorb
	// without pushing a gauge negative.
	r.start("acme")
	r.done("acme")
	r.drop("acme")
	r.done("acme")
	r.drop("acme")
	snap := r.snapshot()["acme"]
	if snap.Queued != 0 || snap.Running != 0 {
		t.Errorf("gauges queued=%d running=%d after drain, want 0/0", snap.Queued, snap.Running)
	}
	if snap.Queued < 0 || snap.Running < 0 {
		t.Errorf("gauges went negative: %+v", snap)
	}
	if snap.Admitted != 2 || snap.Rejected != 2 {
		t.Errorf("admitted=%d rejected=%d, want 2/2", snap.Admitted, snap.Rejected)
	}
}

// TestTenantResumeDoesNotRecharge: a journal-resumed job is adopted
// into its tenant's gauges without a second token charge — the seeds
// were billed in its first life, and a crash that forced re-admission
// through the bucket would wedge every big resumed sweep.
func TestTenantResumeDoesNotRecharge(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign across a kill")
	}
	dir := t.TempDir()
	limits := TenantLimits{SeedsPerSec: 0.001, SeedBurst: 3}

	s1 := newT(t, Config{Workers: 1, QueueDepth: 2, StoreDir: dir, Tenants: limits})
	stall := make(chan struct{})
	s1.execHook = func(j *job) (bool, string, error) {
		select {
		case <-stall:
		case <-j.ctx.Done():
		}
		return false, "", j.ctx.Err()
	}
	base1 := serve(t, s1)
	resp := post(t, base1, "acme", Request{Type: TypeCampaign, Seeds: 3, Verbose: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("initial admission: status %d", resp.StatusCode)
	}
	waitMetric(t, "job running", func() bool { return s1.snapshot().InFlight == 1 })
	s1.Kill()
	close(stall)
	read(resp)

	// Incarnation B has the same stingy bucket; a fresh 3-seed campaign
	// could never pass (0.001 seeds/s, empty after any spend), but the
	// resumed job must run regardless.
	s2, base2 := startTest(t, Config{Workers: 1, QueueDepth: 2, StoreDir: dir, Resume: true, Tenants: limits})
	waitMetric(t, "resumed job finished", func() bool { return s2.snapshot().JobsOK == 1 })

	snap := s2.tenants.snapshot()["acme"]
	if snap.Admitted != 1 || snap.Rejected != 0 {
		t.Errorf("resumed tenant admitted=%d rejected=%d, want 1/0", snap.Admitted, snap.Rejected)
	}
	if snap.Queued != 0 || snap.Running != 0 {
		t.Errorf("resumed tenant gauges queued=%d running=%d after finish, want 0/0", snap.Queued, snap.Running)
	}
	// Adoption left the bucket untouched: the new incarnation's full
	// burst is still there (a charged resume would have drained it to
	// zero, with an 0.001/s refill to claw back).
	if snap.Tokens < 2.99 {
		t.Errorf("resumed tenant tokens = %g, want the full burst of 3 — resume was re-charged", snap.Tokens)
	}
	// A fresh sweep spends that burst normally; the next is refused.
	fresh := post(t, base2, "acme", Request{Type: TypeCampaign, Seeds: 3})
	defer fresh.Body.Close()
	if fresh.StatusCode != http.StatusOK {
		t.Fatalf("fresh admission after resume: status %d, want 200 (burst available)", fresh.StatusCode)
	}
	over := read(post(t, base2, "acme", Request{Type: TypeCampaign, Seeds: 3}))
	if over.status != http.StatusTooManyRequests || over.header.Get("Retry-After") == "" {
		t.Errorf("over-budget admission after resume: status %d retry-after %q, want 429 with a hint",
			over.status, over.header.Get("Retry-After"))
	}
}
