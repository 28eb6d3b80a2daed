package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"uexc/internal/parallel"
)

func TestRequestValidate(t *testing.T) {
	const maxSeeds = 100
	bad := []Request{
		{},                                  // missing type
		{Type: "bogus"},                     // unknown type
		{Type: TypeCampaign},                // seeds missing
		{Type: TypeCampaign, Seeds: -1},     // seeds negative
		{Type: TypeDifftest, Seeds: 101},    // over the cap
		{Type: TypeProgramRun, Mode: "vax"}, // unknown mode
		{Type: TypeCampaign, Seeds: 1, Parallel: -2},
		{Type: TypeProgramRun, TimeoutMS: -5},
	}
	for _, r := range bad {
		if err := r.Validate(maxSeeds); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid request", r)
		}
	}
	good := []Request{
		{Type: TypeCampaign, Seeds: 100},
		{Type: TypeDifftest, Seeds: 1, Parallel: 8},
		{Type: TypeFigureSweep},
		{Type: TypeProgramRun, Seed: 42, Mode: "Hardware", Verbose: true, TimeoutMS: 5000},
		{Type: TypeProgramRun}, // mode defaults to ultrix
	}
	for _, r := range good {
		if err := r.Validate(maxSeeds); err != nil {
			t.Errorf("Validate(%+v): unexpected error %v", r, err)
		}
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]string{
		"": "Ultrix", "ultrix": "Ultrix", "Fast": "FastExc",
		"fastexc": "FastExc", "HARDWARE": "Hardware",
	} {
		m, err := ParseMode(in)
		if err != nil || m.String() != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %s", in, m, err, want)
		}
	}
	if _, err := ParseMode("mips"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

// TestQueueFull429: with every worker busy and the queue full, the
// next POST is rejected with 429 and a Retry-After header, and the
// rejection never disturbs the admitted jobs. The blocking exec hook
// makes saturation deterministic.
func TestQueueFull429(t *testing.T) {
	s, base, release := hold(t, Config{Workers: 2, QueueDepth: 2})

	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			st, err := tryPost(base, Request{Type: TypeProgramRun, Seed: int64(i)})
			if err == nil && (st.status != http.StatusOK || !st.ok) {
				err = fmt.Errorf("status %d ok %v: %s", st.status, st.ok, st.output)
			}
			results <- err
		}(i)
	}
	// Deterministic saturation: 2 in flight, 2 queued.
	waitMetric(t, "saturation", func() bool {
		return s.snapshot().InFlight == 2 && len(s.queue) == 2
	})

	st := postStream(t, base, Request{Type: TypeProgramRun, Seed: 99})
	if st.status != http.StatusTooManyRequests {
		t.Fatalf("queue-full POST: status %d, want 429", st.status)
	}
	if st.header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	release()
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted job failed: %v", err)
		}
	}
	snap := s.snapshot()
	if snap.RejectedFull != 1 || snap.Admitted != 4 || snap.JobsOK != 4 {
		t.Errorf("rejected/admitted/ok = %d/%d/%d, want 1/4/4",
			snap.RejectedFull, snap.Admitted, snap.JobsOK)
	}
}

// TestDrainFinishesAdmittedRejectsNew: Drain lets every admitted job
// run to completion and stream its full result while new jobs bounce
// with 503 + Retry-After; /healthz flips to draining.
func TestDrainFinishesAdmittedRejectsNew(t *testing.T) {
	s, base, release := hold(t, Config{Workers: 1, QueueDepth: 4})

	results := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			st, err := tryPost(base, Request{Type: TypeProgramRun, Seed: int64(i)})
			results <- err == nil && st.ok && st.status == http.StatusOK && st.output == heldOutput
		}(i)
	}
	waitMetric(t, "jobs admitted", func() bool { return s.snapshot().Admitted == 2 })

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitMetric(t, "draining", s.isDraining)

	// New work is rejected while the admitted jobs are still running.
	st := postStream(t, base, Request{Type: TypeProgramRun, Seed: 9})
	if st.status != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain: status %d, want 503", st.status)
	}
	if st.header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	hres, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", hres.StatusCode)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned while jobs were still held")
	default:
	}
	release()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after jobs finished")
	}
	for i := 0; i < 2; i++ {
		if !<-results {
			t.Error("admitted job did not complete cleanly across the drain")
		}
	}
	snap := s.snapshot()
	if snap.RejectedDraining != 1 || snap.Admitted != 2 || snap.JobsOK != 2 {
		t.Errorf("rejectedDraining/admitted/ok = %d/%d/%d, want 1/2/2",
			snap.RejectedDraining, snap.Admitted, snap.JobsOK)
	}
}

// TestStreamByteIdenticalToCLI: the reconstructed job stream equals
// the engines' own output for identical seeds, at shard widths 1 and
// 4 — the serving layer inherits the deterministic-merge guarantee.
func TestStreamByteIdenticalToCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	s, base := startTest(t, Config{Workers: 2, QueueDepth: 8})
	const seeds = 5
	for _, typ := range []Type{TypeCampaign, TypeDifftest} {
		want := golden(t, typ, seeds)
		for _, par := range []int{1, 4} {
			st := postStream(t, base, Request{Type: typ, Seeds: seeds, Parallel: par, Verbose: true})
			if st.status != http.StatusOK || !st.ok {
				t.Fatalf("%s parallel %d: status %d ok %v err %s", typ, par, st.status, st.ok, st.errText)
			}
			if st.output != want {
				t.Errorf("%s parallel %d: stream differs from CLI\n--- server ---\n%s--- cli ---\n%s",
					typ, par, st.output, want)
			}
		}
	}

	// Verdict accounting: every run classified clean — the campaign
	// jobs tally one verdict per seed×mode, the difftest jobs one per
	// seed — and nothing unclassified.
	snap := s.snapshot()
	want := uint64(2*seeds*3 + 2*seeds)
	if snap.Verdicts["clean"] != want {
		t.Errorf("clean verdicts = %d, want %d", snap.Verdicts["clean"], want)
	}
	if snap.Verdicts["engine-bug"] != 0 {
		t.Errorf("engine-bug verdicts = %d, want 0", snap.Verdicts["engine-bug"])
	}
}

// TestProgramRunJob: all three modes execute, the summary is
// deterministic per (seed, mode), and the pooled machines feed the
// simulator counters.
func TestProgramRunJob(t *testing.T) {
	if testing.Short() {
		t.Skip("boots machines")
	}
	s, base := startTest(t, Config{Workers: 2, QueueDepth: 8})
	for _, mode := range []string{"ultrix", "fast", "hardware"} {
		req := Request{Type: TypeProgramRun, Seed: 11, Mode: mode}
		st := postStream(t, base, req)
		if !st.ok {
			t.Fatalf("mode %s: job failed: %s", mode, st.errText)
		}
		if !strings.Contains(st.output, "program-run: seed 11") || !strings.Contains(st.output, "exit: clean") {
			t.Errorf("mode %s: unexpected summary:\n%s", mode, st.output)
		}
		if again := postStream(t, base, req); again.output != st.output {
			t.Errorf("mode %s: summary not deterministic:\n%s\nvs\n%s", mode, st.output, again.output)
		}
	}
	if s.snapshot().SimInsts == 0 || s.snapshot().SimExceptions == 0 {
		t.Error("simulator counters were not harvested from pooled machines")
	}
	if s.snapshot().SimUnixDeliveries == 0 || s.snapshot().SimFastDeliveries == 0 {
		t.Error("delivery counters not harvested across modes")
	}
}

// TestFigureSweepJob: the sweep renders both figures from live
// measurements.
func TestFigureSweepJob(t *testing.T) {
	if testing.Short() {
		t.Skip("boots measurement machines")
	}
	_, base := startTest(t, Config{Workers: 1, QueueDepth: 2})
	st := postStream(t, base, Request{Type: TypeFigureSweep, Parallel: 1})
	if !st.ok {
		t.Fatalf("figure sweep failed: %s", st.errText)
	}
	for _, want := range []string{"Figure 3:", "Figure 4:"} {
		if !strings.Contains(st.output, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
}

// TestJobDeadline: a deadline far below the job's runtime aborts it
// promptly; the result reports the abort and the job counts as
// cancelled, not failed. postStream verifies the integrity trailer, so
// this also pins that a deadline abort — later shards pending in the
// merge frontier behind cancelled earlier ones — still delivers the
// result event and a valid trailer rather than dropping the stream.
func TestJobDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	s, base := startTest(t, Config{Workers: 1, QueueDepth: 2})
	st := postStream(t, base, Request{Type: TypeCampaign, Seeds: 2000, Parallel: 1, TimeoutMS: 25})
	if st.status != http.StatusOK {
		t.Fatalf("status %d", st.status)
	}
	if st.ok {
		t.Fatalf("a 2000-seed campaign finished in 25ms? output: %s", st.output)
	}
	if !strings.Contains(st.errText, "aborted") {
		t.Errorf("result error %q does not mention the abort", st.errText)
	}
	if got := s.snapshot().JobsCancelled; got != 1 {
		t.Errorf("JobsCancelled = %d, want 1", got)
	}
	if got := s.snapshot().JobsFailed; got != 0 {
		t.Errorf("JobsFailed = %d, want 0 (deadline is a cancellation)", got)
	}
}

// TestBadRequests: malformed specs and malformed X-Tenant headers are
// 400s (counted), /jobs is POST-only.
func TestBadRequests(t *testing.T) {
	s, base := startTest(t, Config{Workers: 1, QueueDepth: 1})
	const okBody = `{"type":"program-run","seed":1}`
	cases := []struct{ tenant, body string }{
		{"", `{"type":"bogus"}`},
		{"", `{"type":"campaign","seeds":0}`},
		{"", `{"type":"campaign","seeds":1000000}`},
		{"", `not json at all`},
		{"a\tb", okBody},
		{"x\xffy", okBody},
		{"a b", okBody},
		{`a"b`, okBody},
		{strings.Repeat("t", maxTenantLen+1), okBody},
		{strings.Repeat("t", 5000), okBody},
	}
	for _, c := range cases {
		req, err := http.NewRequest(http.MethodPost, base+"/jobs", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.tenant != "" {
			req.Header.Set("X-Tenant", c.tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q, X-Tenant %.20q (%d bytes): status %d, want 400", c.body, c.tenant, len(c.tenant), resp.StatusCode)
		}
	}
	if got := s.snapshot().BadRequests; got != uint64(len(cases)) {
		t.Errorf("BadRequests = %d, want %d", got, len(cases))
	}
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /jobs: status %d, want 405", resp.StatusCode)
	}
}

// TestMetricsSurfaces: both exposition formats and pprof respond.
func TestMetricsSurfaces(t *testing.T) {
	_, base := startTest(t, Config{Workers: 1, QueueDepth: 1})
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"uexc_jobs_admitted_total", "uexc_queue_capacity 1", "uexc_pool_hit_rate",
		"uexc_sim_tlb_hits_total", "uexc_sim_fastpath_hits_total",
		`uexc_run_verdicts_total{verdict="clean"}`,
		`uexc_run_verdicts_total{verdict="engine-bug"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics text missing %q:\n%s", want, text)
		}
	}

	if snap := fetchMetrics(t, base); snap.QueueCapacity != 1 || snap.Draining {
		t.Errorf("snapshot = %+v", snap)
	}

	presp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", presp.StatusCode)
	}
}

// TestClientDisconnectCancelsJob: dropping the connection mid-stream
// cancels the job's context so the worker is freed promptly.
func TestClientDisconnectCancelsJob(t *testing.T) {
	s := newT(t, Config{Workers: 1, QueueDepth: 1})
	started := make(chan struct{}, 1)
	s.execHook = func(j *job) (bool, string, error) {
		started <- struct{}{}
		<-j.ctx.Done() // only a disconnect or deadline can end this job
		return false, "", j.ctx.Err()
	}
	base := serve(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	resp, err := PostJob(ctx, base, "", Request{Type: TypeProgramRun, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel() // client walks away
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The running gauges settle before the terminal counter, so once
	// the cancellation is counted the worker must already read free.
	waitMetric(t, "job cancelled after client disconnect", func() bool { return s.snapshot().JobsCancelled >= 1 })
	if got := s.snapshot().JobsCancelled; got != 1 {
		t.Errorf("JobsCancelled = %d, want 1", got)
	}
	if got := s.snapshot().InFlight; got != 0 {
		t.Errorf("InFlight = %d after the cancellation was counted, want 0", got)
	}
}

// The mixed burst: burstJobs jobs from burstClients clients.
const burstJobs, burstClients = 24, 8

// TestMixedBurstAccounting: two debug sessions, then a deterministic
// mixed burst, all complete with every job admitted and ok, and
// /metrics agrees exactly with the client-side count. Each client
// holds at most one job, so with no more clients than queue slots
// admission never pushes back: any 429 in the burst is a bug.
func TestMixedBurstAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a mixed burst of campaigns and program runs")
	}
	_, base := startTest(t, Config{Workers: 2, QueueDepth: 16})
	session := Request{Type: TypeDebugSession, Seed: 1, Mode: "ultrix", Verbose: true, Commands: sessionScript()}
	for i := 0; i < 2; i++ {
		if st := postStream(t, base, session); st.status != http.StatusOK || !st.ok {
			t.Fatalf("debug session %d: status %d: %s", i, st.status, st.errText)
		}
	}
	errs, err := parallel.MapCtx(context.Background(), burstClients, burstJobs, func(i int) error {
		st, err := tryPost(base, mixRequest(i))
		if err == nil && (st.status != http.StatusOK || !st.ok) {
			err = fmt.Errorf("status %d ok %v: %s%s", st.status, st.ok, st.errText, st.output)
		}
		return err
	})
	if err != nil {
		t.Fatalf("burst: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("burst job %d (%s): %v", i, mixRequest(i).Type, err)
		}
	}
	if err := checkAccounting(fetchMetrics(t, base), 2+burstJobs); err != nil {
		t.Errorf("metrics accounting: %v", err)
	}
}

// mixRequest deterministically maps a burst index to a request, so the
// burst's composition depends only on its size, never on scheduling:
// every tenth job a 3-seed campaign, every tenth from offset 5 a
// 2-seed difftest, the rest program runs across the three delivery
// modes — all streaming per-run progress.
func mixRequest(i int) Request {
	switch i % 10 {
	case 0:
		return Request{Type: TypeCampaign, Seeds: 3, Parallel: 1 + i%3, Verbose: true}
	case 5:
		return Request{Type: TypeDifftest, Seeds: 2, Parallel: 1 + i%2, Verbose: true}
	default:
		modes := []string{"ultrix", "fast", "hardware"}
		return Request{Type: TypeProgramRun, Seed: int64(i), Mode: modes[i%3], Verbose: true}
	}
}

// checkAccounting holds the burst instance's /metrics to the
// client-side count: every admitted job ok, every gauge back at zero,
// every pool checkout a fork or a restore, and the simulator and
// translation-tier counters harvested.
func checkAccounting(s Snapshot, wantAdmitted uint64) error {
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
}

// TestRunServesAndDrains: Run binds an ephemeral port, serves, and a
// context cancellation (the SIGTERM path) drains and returns nil.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var log bytes.Buffer
	var mu sync.Mutex
	lw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return log.Write(p)
	})
	go func() { done <- Run(ctx, Config{Workers: 1, QueueDepth: 1}, lw, ready) }()
	addr := <-ready

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not shut down")
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(log.String(), "drained, bye") {
		t.Errorf("shutdown log: %s", log.String())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
