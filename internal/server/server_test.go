package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	dt "uexc/internal/difftest"
	"uexc/internal/harness"
)

// newT builds a Server, failing the test on a store error.
func newT(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// startTest serves a fresh Server over real HTTP and tears both down
// with the test.
func startTest(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := newT(t, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs.URL
}

// postStream posts a job and fully consumes its stream. Main test
// goroutine only (it may Fatal).
func postStream(t *testing.T, base string, req Request) (output string, ok bool, errText string, status int, hdr http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return string(msg), false, "", resp.StatusCode, resp.Header
	}
	out, okv, complete, errText := StreamResult(resp.Body)
	if !complete {
		t.Fatalf("stream for %+v ended without a result event (so far: %q, err %s)", req, out, errText)
	}
	return out, okv, errText, resp.StatusCode, resp.Header
}

// tryPost is the goroutine-safe variant: it never touches testing.T,
// reporting transport problems as an error instead.
func tryPost(base string, req Request) (output string, ok bool, status int, err error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", false, resp.StatusCode, nil
	}
	out, okv, complete, errText := StreamResult(resp.Body)
	if !complete {
		return out, false, resp.StatusCode, fmt.Errorf("incomplete stream: %s", errText)
	}
	return out, okv, resp.StatusCode, nil
}

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
	s := newT(t, Config{Workers: 2, QueueDepth: 2})
	release := make(chan struct{})
	s.execHook = func(j *job) (bool, string, error) {
		select {
		case <-release:
			return true, "held job done\n", nil
		case <-j.ctx.Done():
			return false, "", j.ctx.Err()
		}
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	defer rel() // must run before s.Close so held jobs can finish

	type res struct {
		ok     bool
		output string
	}
	results := make(chan res, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			out, ok, status, err := tryPost(hs.URL, Request{Type: TypeProgramRun, Seed: int64(i)})
			if err != nil || status != http.StatusOK {
				results <- res{false, fmt.Sprintf("status %d err %v", status, err)}
				return
			}
			results <- res{ok, out}
		}(i)
	}
	// Deterministic saturation: 2 in flight, 2 queued.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.InFlight.Load() != 2 || len(s.queue) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("saturation not reached: inflight %d, queued %d",
				s.metrics.InFlight.Load(), len(s.queue))
		}
		time.Sleep(time.Millisecond)
	}

	_, _, _, status, hdr := postStream(t, hs.URL, Request{Type: TypeProgramRun, Seed: 99})
	if status != http.StatusTooManyRequests {
		t.Fatalf("queue-full POST: status %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	rel()
	for i := 0; i < 4; i++ {
		r := <-results
		if !r.ok {
			t.Errorf("admitted job failed: %s", r.output)
		}
	}
	if got := s.metrics.RejectedFull.Load(); got != 1 {
		t.Errorf("RejectedFull = %d, want 1", got)
	}
	if got := s.metrics.Admitted.Load(); got != 4 {
		t.Errorf("Admitted = %d, want 4", got)
	}
}

// TestDrainFinishesAdmittedRejectsNew: Drain lets every admitted job
// run to completion and stream its full result while new jobs bounce
// with 503 + Retry-After; /healthz flips to draining.
func TestDrainFinishesAdmittedRejectsNew(t *testing.T) {
	s := newT(t, Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	s.execHook = func(j *job) (bool, string, error) {
		select {
		case <-release:
			return true, "drained job done\n", nil
		case <-j.ctx.Done():
			return false, "", j.ctx.Err()
		}
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	defer rel()

	results := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			out, ok, status, err := tryPost(hs.URL, Request{Type: TypeProgramRun, Seed: int64(i)})
			results <- err == nil && ok && status == http.StatusOK && out == "drained job done\n"
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.Admitted.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("jobs never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	for !s.isDraining() {
		time.Sleep(time.Millisecond)
	}

	// New work is rejected while the admitted jobs are still running.
	_, _, _, status, hdr := postStream(t, hs.URL, Request{Type: TypeProgramRun, Seed: 9})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	hres, err := http.Get(hs.URL + "/healthz")
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
	rel()
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
	if got := s.metrics.RejectedDraining.Load(); got != 1 {
		t.Errorf("RejectedDraining = %d, want 1", got)
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
	const seeds = 3

	var wantCampaign bytes.Buffer
	cres, err := harness.FaultCampaignCtx(context.Background(), nil, seeds, 1, &wantCampaign)
	if err != nil {
		t.Fatal(err)
	}
	wantCampaign.WriteString(cres.Summary())

	var wantDiff bytes.Buffer
	dres, err := dt.CampaignCtx(context.Background(), nil, seeds, 1, &wantDiff)
	if err != nil {
		t.Fatal(err)
	}
	wantDiff.WriteString(dres.Summary())

	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{Type: TypeCampaign, Seeds: seeds, Parallel: 1, Verbose: true}, wantCampaign.String()},
		{Request{Type: TypeCampaign, Seeds: seeds, Parallel: 4, Verbose: true}, wantCampaign.String()},
		{Request{Type: TypeDifftest, Seeds: seeds, Parallel: 1, Verbose: true}, wantDiff.String()},
		{Request{Type: TypeDifftest, Seeds: seeds, Parallel: 4, Verbose: true}, wantDiff.String()},
	} {
		out, ok, errText, status, _ := postStream(t, base, tc.req)
		if status != http.StatusOK || !ok {
			t.Fatalf("%s parallel %d: status %d ok %v err %s", tc.req.Type, tc.req.Parallel, status, ok, errText)
		}
		if out != tc.want {
			t.Errorf("%s parallel %d: stream differs from CLI\n--- server ---\n%s--- cli ---\n%s",
				tc.req.Type, tc.req.Parallel, out, tc.want)
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
		out1, ok, errText, _, _ := postStream(t, base, req)
		if !ok {
			t.Fatalf("mode %s: job failed: %s", mode, errText)
		}
		if !strings.Contains(out1, "program-run: seed 11") || !strings.Contains(out1, "exit: clean") {
			t.Errorf("mode %s: unexpected summary:\n%s", mode, out1)
		}
		out2, _, _, _, _ := postStream(t, base, req)
		if out1 != out2 {
			t.Errorf("mode %s: summary not deterministic:\n%s\nvs\n%s", mode, out1, out2)
		}
	}
	if s.metrics.SimInsts.Load() == 0 || s.metrics.SimExceptions.Load() == 0 {
		t.Error("simulator counters were not harvested from pooled machines")
	}
	if s.metrics.SimUnixDeliveries.Load() == 0 || s.metrics.SimFastDeliveries.Load() == 0 {
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
	out, ok, errText, _, _ := postStream(t, base, Request{Type: TypeFigureSweep, Parallel: 1})
	if !ok {
		t.Fatalf("figure sweep failed: %s", errText)
	}
	for _, want := range []string{"Figure 3:", "Figure 4:"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
}

// TestJobDeadline: a deadline far below the job's runtime aborts it
// promptly; the result reports the abort and the job counts as
// cancelled, not failed. postStream verifies the integrity trailer, so
// this also pins that a deadline abort — later shards buffered in the
// OrderedWriter behind cancelled earlier ones — still delivers the
// result event and a valid trailer rather than dropping the stream.
func TestJobDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	s, base := startTest(t, Config{Workers: 1, QueueDepth: 2})
	out, ok, errText, status, _ := postStream(t, base,
		Request{Type: TypeCampaign, Seeds: 2000, Parallel: 1, TimeoutMS: 25})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if ok {
		t.Fatalf("a 2000-seed campaign finished in 25ms? output: %s", out)
	}
	if !strings.Contains(errText, "aborted") {
		t.Errorf("result error %q does not mention the abort", errText)
	}
	if got := s.metrics.JobsCancelled.Load(); got != 1 {
		t.Errorf("JobsCancelled = %d, want 1", got)
	}
	if got := s.metrics.JobsFailed.Load(); got != 0 {
		t.Errorf("JobsFailed = %d, want 0 (deadline is a cancellation)", got)
	}
}

// postEvents posts a job and returns every raw event in the stream —
// for tests that inspect event kinds postStream's reconstruction hides
// (shard-range digests).
func postEvents(t *testing.T, base string, req Request) []Event {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, msg)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("malformed event %q: %v", sc.Bytes(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestShardRangeJob pins the worker half of the coordinator protocol:
// a campaign range job streams exactly one shard event per index of
// [from, to), in ascending order (index 0 included — the pointer field
// survives omitempty), each digest byte-identical to the local engine's
// shard, at any parallel width.
func TestShardRangeJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaign shards")
	}
	const seeds = 4
	space := harness.CampaignShards(seeds) // 15
	s, base := startTest(t, Config{Workers: 2, QueueDepth: 4})

	for _, rg := range []struct{ from, to, par int }{
		{0, space/2 + 1, 3},
		{space/2 + 1, space, 1},
	} {
		evs := postEvents(t, base, Request{
			Type: TypeCampaign, Seeds: seeds,
			ShardFrom: rg.from, ShardTo: rg.to, Parallel: rg.par,
		})
		want := rg.from
		var sawResult, sawTrailer bool
		for _, ev := range evs {
			switch ev.Type {
			case "shard":
				if ev.Shard == nil {
					t.Fatalf("shard event without an index: %+v", ev)
				}
				if *ev.Shard != want {
					t.Fatalf("shard events out of order: got %d, want %d", *ev.Shard, want)
				}
				local, _ := json.Marshal(harness.RunShard(s.pool, seeds, *ev.Shard))
				if string(ev.Data) != string(local) {
					t.Errorf("shard %d digest %s != local %s", *ev.Shard, ev.Data, local)
				}
				want++
			case "result":
				sawResult = true
				if ev.OK == nil || !*ev.OK {
					t.Fatalf("range job failed: %+v", ev)
				}
			case "trailer":
				sawTrailer = true
			}
		}
		if want != rg.to {
			t.Fatalf("range [%d,%d): shard events stop at %d", rg.from, rg.to, want)
		}
		if !sawResult || !sawTrailer {
			t.Fatalf("range [%d,%d): result=%v trailer=%v", rg.from, rg.to, sawResult, sawTrailer)
		}
	}

	// Malformed ranges are client errors, not jobs.
	for _, req := range []Request{
		{Type: TypeProgramRun, Seed: 1, ShardFrom: 0, ShardTo: 1},       // not rangeable
		{Type: TypeCampaign, Seeds: seeds, ShardFrom: 3, ShardTo: 3},    // empty
		{Type: TypeCampaign, Seeds: seeds, ShardFrom: -1, ShardTo: 2},   // negative
		{Type: TypeCampaign, Seeds: seeds, ShardFrom: 0, ShardTo: 9999}, // past the space
		{Type: TypeDifftest, Seeds: seeds, ShardFrom: 2, ShardTo: 1},    // inverted
	} {
		if _, _, status, err := tryPost(base, req); err != nil || status != http.StatusBadRequest {
			t.Errorf("range %+v: status %d (err %v), want 400", req, status, err)
		}
	}
}

// TestBadRequests: malformed specs are 400s (counted), /jobs is
// POST-only.
func TestBadRequests(t *testing.T) {
	s, base := startTest(t, Config{Workers: 1, QueueDepth: 1})
	for _, body := range []string{
		`{"type":"bogus"}`,
		`{"type":"campaign","seeds":0}`,
		`{"type":"campaign","seeds":1000000}`,
		`not json at all`,
	} {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if got := s.metrics.BadRequests.Load(); got != 4 {
		t.Errorf("BadRequests = %d, want 4", got)
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

	var snap Snapshot
	jresp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	jresp.Body.Close()
	if snap.QueueCapacity != 1 || snap.Draining {
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

// TestLoadgen: a small mixed burst completes with zero failures and
// the /metrics totals agree exactly with the client-side counts.
func TestLoadgen(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns under load")
	}
	s, base := startTest(t, Config{Workers: 4, QueueDepth: 16})
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: base, Jobs: 20, Concurrency: 6, Verbose: true,
	})
	if err != nil {
		t.Fatalf("loadgen: %v\nreport: %+v", err, rep)
	}
	if rep.OK != 20 || rep.Failed != 0 || rep.Dropped != 0 {
		t.Fatalf("report: %+v", rep)
	}
	var total int
	for _, n := range rep.ByType {
		total += n
	}
	if total != 20 || rep.ByType[string(TypeCampaign)] == 0 || rep.ByType[string(TypeDifftest)] == 0 ||
		rep.ByType[string(TypeProgramRun)] == 0 {
		t.Errorf("job mix: %+v", rep.ByType)
	}
	if s.metrics.Admitted.Load() != 20 || s.metrics.JobsOK.Load() != 20 {
		t.Errorf("server counts admitted=%d ok=%d, want 20/20 (client-side)",
			s.metrics.Admitted.Load(), s.metrics.JobsOK.Load())
	}
	if st := s.pool.Stats(); st.Restores == 0 || st.Gets != st.Forks+st.Restores {
		t.Errorf("machine pool never recycled under load, or lost a checkout: %+v", st)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "jobs/s") {
		t.Errorf("report render: %s", buf.String())
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
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()

	body, _ := json.Marshal(Request{Type: TypeProgramRun, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/jobs", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel() // client walks away
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.InFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker still held after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.metrics.JobsCancelled.Load(); got != 1 {
		t.Errorf("JobsCancelled = %d, want 1", got)
	}
}

// TestSmoke runs the full end-to-end self-test (the make serve-smoke
// payload) at reduced scale.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving smoke")
	}
	var out bytes.Buffer
	rep, err := Smoke(context.Background(), &out, SmokeConfig{Jobs: 10, Concurrency: 4, Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatalf("smoke: %v\n%s", err, out.String())
	}
	if rep.OK != 10 {
		t.Errorf("smoke burst: %+v", rep)
	}
	if !strings.Contains(out.String(), "smoke: ok") {
		t.Errorf("smoke transcript:\n%s", out.String())
	}
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
