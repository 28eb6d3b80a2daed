package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"uexc/internal/debug"
	dt "uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/kernel"
)

// SmokeConfig sizes the end-to-end smoke run.
type SmokeConfig struct {
	Jobs        int // loadgen burst size (<=0: 24)
	Concurrency int // loadgen clients (<=0: 8)
	// Server shape for the burst phase.
	Workers, QueueDepth int
}

// Smoke is the serving subsystem's end-to-end self-test, run by
// `make serve-smoke` (and, scaled up, by `make bench-serve`): it
// starts a real uexc-serve instance on an ephemeral port and proves
// the serving contract over actual HTTP:
//
//  1. byte-identity — campaign and difftest job streams reconstruct
//     exactly the CLI's output for the same seeds, at shard width 1
//     and 4;
//  2. backpressure — with a single worker and a tiny queue, saturating
//     admission yields 429 with Retry-After;
//  3. load — a mixed-job loadgen burst completes with zero failed or
//     dropped jobs;
//  4. drain — after Drain begins, new jobs get 503 while the in-flight
//     job runs to completion and still streams its full result;
//  5. tenancy — per-tenant admission quotas reject an over-cap tenant
//     with 429 + Retry-After without touching its neighbours, and every
//     gauge (in-flight, queue depth, per-tenant queued/running) returns
//     to exactly zero once the work drains — the exactly-once
//     transition check;
//  6. accounting — /metrics totals agree exactly with the client-side
//     counts, and no gauge is ever observed negative.
//
// It returns the burst's LoadReport for benchmark recording.
func Smoke(ctx context.Context, out io.Writer, cfg SmokeConfig) (*LoadReport, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 24
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(runCtx, Config{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth}, out, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-runErr:
		return nil, fmt.Errorf("smoke: server failed to start: %v", err)
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("smoke: server did not start")
	}
	client := &http.Client{}

	// Phase 1: byte-identity against the in-process engines.
	fmt.Fprintln(out, "smoke: phase 1: stream byte-identity vs CLI engines")
	if err := checkByteIdentity(ctx, client, base); err != nil {
		return nil, fmt.Errorf("smoke: byte-identity: %w", err)
	}

	// Phase 1b: the debug-session gauntlet on the same instance: a
	// watchpoint on the kernel trapframe page must hit, state must be
	// inspectable at the pause, and the resumed session must re-run
	// byte-identically.
	fmt.Fprintln(out, "smoke: phase 1b: debug-session watchpoint gauntlet")
	if err := checkDebugSession(client, base); err != nil {
		return nil, fmt.Errorf("smoke: debug-session: %w", err)
	}

	// Phase 2: deterministic backpressure on a deliberately tiny
	// instance (one worker, one queue slot).
	fmt.Fprintln(out, "smoke: phase 2: queue-full backpressure (429)")
	if err := checkBackpressure(ctx, client); err != nil {
		return nil, fmt.Errorf("smoke: backpressure: %w", err)
	}

	// Phase 3: the mixed load burst, then exact accounting against the
	// client-side counts.
	fmt.Fprintf(out, "smoke: phase 3: loadgen burst (%d jobs x %d clients)\n", cfg.Jobs, cfg.Concurrency)
	rep, err := RunLoad(ctx, LoadConfig{
		BaseURL: base, Jobs: cfg.Jobs, Concurrency: cfg.Concurrency, Verbose: true,
	})
	if err != nil {
		return rep, fmt.Errorf("smoke: loadgen: %w", err)
	}
	rep.Render(out)
	// 4 byte-identity jobs + 2 debug sessions + the burst, all ok,
	// nothing queued or running once the burst returns.
	wantAdmitted := uint64(4 + 2 + cfg.Jobs)
	if err := VerifyMetrics(base, func(s Snapshot) error {
		if s.Admitted != wantAdmitted || s.JobsOK != wantAdmitted {
			return fmt.Errorf("admitted/ok = %d/%d, want %d (client-side count)", s.Admitted, s.JobsOK, wantAdmitted)
		}
		if s.JobsFailed != 0 || s.JobsCancelled != 0 {
			return fmt.Errorf("failed=%d cancelled=%d, want 0", s.JobsFailed, s.JobsCancelled)
		}
		if err := checkGauges(s, true); err != nil {
			return err
		}
		// Every checkout is a fork or a restore of the boot snapshot,
		// and a burst this size must have recycled a machine.
		if s.Pool.Gets != s.Pool.Forks+s.Pool.Restores || s.Pool.Restores == 0 {
			return fmt.Errorf("pool accounting: want gets == forks + restores with restores > 0: %+v", s.Pool)
		}
		if s.SessionsStarted != 2 {
			return fmt.Errorf("sessions_started_total = %d, want 2", s.SessionsStarted)
		}
		if s.SimInsts == 0 || s.SimExceptions == 0 || s.SimTLBMisses == 0 || s.SimFastPathHits == 0 {
			return fmt.Errorf("simulator counters not harvested: %+v", s)
		}
		// Translation-tier gauge integrity: campaign kernels run through
		// the JIT (the default engine), so harvested runs must show
		// blocks both compiled and executed — a zero here means the
		// harvest hook and the tier's counters have come unglued.
		if s.SimJITBlocks == 0 || s.SimJITExecs == 0 {
			return fmt.Errorf("translation-tier counters not harvested: blocks=%d execs=%d",
				s.SimJITBlocks, s.SimJITExecs)
		}
		return nil
	}); err != nil {
		return rep, fmt.Errorf("smoke: metrics accounting: %w", err)
	}
	fmt.Fprintf(out, "smoke: metrics agree with client-side counts (%d admitted, %d ok)\n",
		wantAdmitted, wantAdmitted)

	// Phase 4: drain. A dedicated instance proves both halves of the
	// contract deterministically (rejection of new work, completion of
	// admitted work); then the main instance takes the real SIGTERM
	// path and must shut down cleanly.
	fmt.Fprintln(out, "smoke: phase 4: graceful drain")
	if err := checkDrain(client); err != nil {
		return rep, fmt.Errorf("smoke: drain: %w", err)
	}

	// Phase 5: tenant quotas and gauge integrity on a dedicated
	// limited instance.
	fmt.Fprintln(out, "smoke: phase 5: tenant quotas + gauge integrity")
	if err := checkTenantQuotas(client); err != nil {
		return rep, fmt.Errorf("smoke: tenancy: %w", err)
	}

	cancel() // the SIGTERM path: Run drains, then shuts down
	if err := <-runErr; err != nil {
		return rep, fmt.Errorf("smoke: server shutdown: %v", err)
	}
	fmt.Fprintln(out, "smoke: ok — byte-identity, debug sessions, backpressure, load, drain, tenancy all verified")
	return rep, nil
}

// checkGauges asserts the gauge invariants every phase relies on: no
// gauge — global or per-tenant — may ever read negative, and once the
// instance is quiet they must all have returned to exactly zero. A
// nonzero residue here means a transition was double-counted or
// skipped somewhere in the admit/dequeue/finish path.
func checkGauges(s Snapshot, drained bool) error {
	if s.InFlight < 0 || s.QueueDepth < 0 {
		return fmt.Errorf("negative gauge: inflight=%d queue=%d", s.InFlight, s.QueueDepth)
	}
	for name, ts := range s.Tenants {
		if ts.Queued < 0 || ts.Running < 0 {
			return fmt.Errorf("tenant %q gauge negative: queued=%d running=%d", name, ts.Queued, ts.Running)
		}
		if drained && (ts.Queued != 0 || ts.Running != 0) {
			return fmt.Errorf("tenant %q gauges queued=%d running=%d after drain, want 0/0",
				name, ts.Queued, ts.Running)
		}
	}
	if drained && (s.InFlight != 0 || s.QueueDepth != 0) {
		return fmt.Errorf("gauges inflight=%d queue=%d after drain, want 0/0", s.InFlight, s.QueueDepth)
	}
	return nil
}

// checkTenantQuotas proves multi-tenant admission end to end: a tenant
// at its in-flight cap is refused with 429 + Retry-After, a different
// tenant is admitted untouched, and after the held jobs drain every
// gauge — global and per-tenant — reads exactly zero.
func checkTenantQuotas(client *http.Client) error {
	s, err := New(Config{
		Workers: 2, QueueDepth: 4,
		Tenants: TenantLimits{MaxInFlight: 1},
	})
	if err != nil {
		return err
	}
	defer s.Close()
	release := make(chan struct{})
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	defer rel()
	s.execHook = func(j *job) (bool, string, error) {
		select {
		case <-release:
			return true, "held job done\n", nil
		case <-j.ctx.Done():
			return false, "", j.ctx.Err()
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = hs.Serve(ln) }()
	defer func() { _ = hs.Close(); <-serveDone }()
	base := "http://" + ln.Addr().String()

	post := func(tenant string) (*http.Response, error) {
		body, _ := json.Marshal(Request{Type: TypeProgramRun, Seed: 1})
		req, _ := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		return client.Do(req)
	}
	type streamed struct {
		ok, complete bool
		err          error
	}
	results := make(chan streamed, 2)
	holdJob := func(tenant string) error {
		resp, err := post(tenant)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("tenant %q: status %d, want 200", tenant, resp.StatusCode)
		}
		go func() {
			defer resp.Body.Close()
			var st streamed
			_, st.ok, st.complete, _ = StreamResult(resp.Body)
			results <- st
		}()
		return nil
	}

	if err := holdJob("alpha"); err != nil {
		return err
	}
	if err := waitSnapshot(base, 10*time.Second, func(s Snapshot) bool {
		return s.Tenants["alpha"].Running == 1
	}); err != nil {
		return fmt.Errorf("alpha job never started: %w", err)
	}

	// alpha is at its cap: the second job must bounce with a hint.
	rej, err := post("alpha")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, rej.Body)
	rej.Body.Close()
	if rej.StatusCode != http.StatusTooManyRequests || rej.Header.Get("Retry-After") == "" {
		return fmt.Errorf("over-quota tenant: status %d (Retry-After %q), want 429 with Retry-After",
			rej.StatusCode, rej.Header.Get("Retry-After"))
	}

	// beta's quota is its own: admitted despite alpha's rejection.
	if err := holdJob("beta"); err != nil {
		return fmt.Errorf("quota leaked across tenants: %w", err)
	}

	if err := VerifyMetrics(base, func(s Snapshot) error {
		if s.RejectedTenant != 1 {
			return fmt.Errorf("jobs_rejected_tenant_total = %d, want 1", s.RejectedTenant)
		}
		if s.Tenants["alpha"].Rejected != 1 || s.Tenants["beta"].Admitted != 1 {
			return fmt.Errorf("tenant counters off: %+v", s.Tenants)
		}
		return checkGauges(s, false)
	}); err != nil {
		return err
	}

	rel()
	for i := 0; i < 2; i++ {
		st := <-results
		if st.err != nil || !st.complete || !st.ok {
			return fmt.Errorf("held tenant job %d did not finish cleanly: %+v", i, st)
		}
	}
	if err := waitSnapshot(base, 10*time.Second, func(s Snapshot) bool {
		return s.JobsOK == 2 && s.InFlight == 0
	}); err != nil {
		return fmt.Errorf("held jobs never drained: %w", err)
	}
	return VerifyMetrics(base, func(s Snapshot) error { return checkGauges(s, true) })
}

// checkDrain proves the drain contract on a dedicated instance: once
// Drain begins, new jobs bounce with 503 + Retry-After and /healthz
// reports draining, while the already-admitted job — held in place by
// the exec hook so the check cannot depend on engine speed — still
// runs to completion and streams its full result.
func checkDrain(client *http.Client) error {
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		return err
	}
	defer s.Close()
	release := make(chan struct{})
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	defer rel() // before s.Close, so the held job can finish
	s.execHook = func(j *job) (bool, string, error) {
		select {
		case <-release:
			return true, "held job done\n", nil
		case <-j.ctx.Done():
			return false, "", j.ctx.Err()
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = hs.Serve(ln) }()
	defer func() { _ = hs.Close(); <-serveDone }()
	base := "http://" + ln.Addr().String()

	held, _ := json.Marshal(Request{Type: TypeProgramRun, Seed: 1})
	type streamed struct {
		ok, complete bool
		output       string
		err          error
	}
	result := make(chan streamed, 1)
	go func() {
		resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(held))
		if err != nil {
			result <- streamed{err: err}
			return
		}
		defer resp.Body.Close()
		var st streamed
		st.output, st.ok, st.complete, _ = StreamResult(resp.Body)
		result <- st
	}()
	if err := waitSnapshot(base, 10*time.Second, func(s Snapshot) bool { return s.InFlight == 1 }); err != nil {
		return fmt.Errorf("held job never admitted: %w", err)
	}

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		hres, err := client.Get(base + "/healthz")
		if err != nil {
			return fmt.Errorf("healthz during drain: %v", err)
		}
		io.Copy(io.Discard, hres.Body)
		hres.Body.Close()
		if hres.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rejBody, _ := json.Marshal(Request{Type: TypeProgramRun, Seed: 9, Mode: "fast"})
	rej, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(rejBody))
	if err != nil {
		return fmt.Errorf("post during drain: %v", err)
	}
	io.Copy(io.Discard, rej.Body)
	rej.Body.Close()
	if rej.StatusCode != http.StatusServiceUnavailable || rej.Header.Get("Retry-After") == "" {
		return fmt.Errorf("job during drain: status %d (Retry-After %q), want 503 with Retry-After",
			rej.StatusCode, rej.Header.Get("Retry-After"))
	}
	select {
	case <-drained:
		return fmt.Errorf("Drain returned while the admitted job was still running")
	default:
	}

	rel()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("Drain did not return after the held job finished")
	}
	st := <-result
	if st.err != nil || !st.complete || !st.ok || st.output != "held job done\n" {
		return fmt.Errorf("admitted job did not finish cleanly across the drain: %+v", st)
	}
	return VerifyMetrics(base, func(s Snapshot) error {
		if s.Admitted != 1 || s.JobsOK != 1 || s.RejectedDraining != 1 {
			return fmt.Errorf("admitted/ok/rejectedDraining = %d/%d/%d, want 1/1/1",
				s.Admitted, s.JobsOK, s.RejectedDraining)
		}
		return nil
	})
}

// checkBackpressure saturates a deliberately tiny instance (one
// worker, one queue slot) and demands a 429 with Retry-After. The two
// occupying jobs are gated on a release channel through the exec hook,
// so the worker and the queue slot stay full — independent of how fast
// the engines happen to run — until the 429 has been observed.
func checkBackpressure(ctx context.Context, client *http.Client) error {
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		return err
	}
	defer s.Close()
	release := make(chan struct{})
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	defer rel() // before s.Close, so held jobs can finish
	s.execHook = func(j *job) (bool, string, error) {
		select {
		case <-release:
			return true, "held job done\n", nil
		case <-j.ctx.Done():
			return false, "", j.ctx.Err()
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = hs.Serve(ln) }()
	defer func() { _ = hs.Close(); <-serveDone }()
	base := "http://" + ln.Addr().String()

	held, _ := json.Marshal(Request{Type: TypeProgramRun, Seed: 1})
	type streamed struct {
		ok, complete bool
		status       int
		err          error
	}
	results := make(chan streamed, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(held))
			if err != nil {
				results <- streamed{err: err}
				return
			}
			defer resp.Body.Close()
			st := streamed{status: resp.StatusCode}
			if resp.StatusCode == http.StatusOK {
				_, st.ok, st.complete, _ = StreamResult(resp.Body)
			}
			results <- st
		}()
		// Admit strictly in turn: the first job must be on the worker
		// (in flight, dequeued) before the second takes the queue slot,
		// or the second would itself bounce off the full queue.
		want := func(s Snapshot) bool { return s.InFlight == 1 && s.QueueDepth == 0 }
		if i == 1 {
			want = func(s Snapshot) bool { return s.InFlight == 1 && s.QueueDepth == 1 }
		}
		if err := waitSnapshot(base, 10*time.Second, want); err != nil {
			return fmt.Errorf("saturation step %d never observed: %w", i, err)
		}
	}

	probe, _ := json.Marshal(Request{Type: TypeProgramRun, Seed: 3, Mode: "fast"})
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(probe))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		return fmt.Errorf("queue-full POST: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("429 without a Retry-After header")
	}

	rel()
	for i := 0; i < 2; i++ {
		st := <-results
		if st.err != nil || !st.complete || !st.ok {
			return fmt.Errorf("slow job %d did not finish cleanly: %+v", i, st)
		}
	}
	return VerifyMetrics(base, func(s Snapshot) error {
		if s.Admitted != 2 || s.JobsOK != 2 || s.RejectedFull != 1 {
			return fmt.Errorf("admitted/ok/rejected = %d/%d/%d, want 2/2/1", s.Admitted, s.JobsOK, s.RejectedFull)
		}
		return nil
	})
}

// waitSnapshot polls /metrics until cond holds or the deadline lapses.
func waitSnapshot(base string, timeout time.Duration, cond func(Snapshot) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		var got Snapshot
		if err := VerifyMetrics(base, func(s Snapshot) error { got = s; return nil }); err != nil {
			return err
		}
		if cond(got) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition never held; last snapshot: %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkByteIdentity proves the serving layer's central guarantee: a
// job stream, reconstructed as progress-lines + summary, is byte-
// identical to the CLI's (stderr -v stream + stdout summary) for the
// same seeds — at more than one shard width.
func checkByteIdentity(ctx context.Context, client *http.Client, base string) error {
	const seeds = 5
	var cliCampaign bytes.Buffer
	cres, err := harness.FaultCampaignCtx(ctx, nil, seeds, 1, &cliCampaign)
	if err != nil {
		return err
	}
	cliCampaign.WriteString(cres.Summary())

	var cliDiff bytes.Buffer
	dres, err := dt.CampaignCtx(ctx, nil, seeds, 1, &cliDiff)
	if err != nil {
		return err
	}
	cliDiff.WriteString(dres.Summary())

	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{Type: TypeCampaign, Seeds: seeds, Parallel: 1, Verbose: true}, cliCampaign.String()},
		{Request{Type: TypeCampaign, Seeds: seeds, Parallel: 4, Verbose: true}, cliCampaign.String()},
		{Request{Type: TypeDifftest, Seeds: seeds, Parallel: 1, Verbose: true}, cliDiff.String()},
		{Request{Type: TypeDifftest, Seeds: seeds, Parallel: 4, Verbose: true}, cliDiff.String()},
	} {
		body, _ := json.Marshal(tc.req)
		resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("%s parallel %d: status %d", tc.req.Type, tc.req.Parallel, resp.StatusCode)
		}
		got, ok, complete, errText := StreamResult(resp.Body)
		resp.Body.Close()
		if !complete || !ok {
			return fmt.Errorf("%s parallel %d: stream incomplete (ok=%v, err=%s)", tc.req.Type, tc.req.Parallel, ok, errText)
		}
		if got != tc.want {
			return fmt.Errorf("%s parallel %d: stream output differs from CLI\n--- server ---\n%s\n--- cli ---\n%s",
				tc.req.Type, tc.req.Parallel, got, tc.want)
		}
	}
	return nil
}

// checkDebugSession proves the debug-session contract end to end: a
// virtual watchpoint on the kernel trapframe page (a kernel DATA page
// — the Ultrix slow path stores every trapped register there) must
// pause the run at the first delivery, the paused state must be
// inspectable, and resuming must finish the job — twice, with the two
// transcripts byte-identical, since a journaled session is re-run
// deterministically after a restart.
func checkDebugSession(client *http.Client, base string) error {
	tf := uint32(kernel.KStackTop - kernel.TrapframeSize)
	req := Request{Type: TypeDebugSession, Seed: 1, Mode: "ultrix", Verbose: true,
		Commands: []debug.Command{
			{Op: "watch-page", Addr: tf},
			{Op: "continue"},
			{Op: "inspect", Addr: tf, N: 8},
			{Op: "regs"},
			{Op: "step", N: 4},
			{Op: "inspect", Addr: tf, N: 8},
			{Op: "clear", Addr: tf},
			{Op: "continue"},
		}}
	run := func() (string, error) {
		body, _ := json.Marshal(req)
		resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d, want 200", resp.StatusCode)
		}
		out, ok, complete, errText := StreamResult(resp.Body)
		if !complete || !ok {
			return "", fmt.Errorf("stream incomplete (ok=%v, err=%s)", ok, errText)
		}
		return out, nil
	}
	first, err := run()
	if err != nil {
		return err
	}
	if !strings.Contains(first, "hit watch") {
		return fmt.Errorf("watchpoint on the trapframe page never hit:\n%s", first)
	}
	if !strings.Contains(first, "inspect") || !strings.Contains(first, "exit: status=") {
		return fmt.Errorf("session did not inspect and resume to completion:\n%s", first)
	}
	second, err := run()
	if err != nil {
		return err
	}
	if first != second {
		return fmt.Errorf("re-run session transcript differs\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	return nil
}

// VerifyMetrics cross-checks a /metrics snapshot against client-side
// expectations; used by the smoke binary after its phases complete.
func VerifyMetrics(base string, check func(Snapshot) error) error {
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return err
	}
	return check(snap)
}
