package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"uexc/internal/sweep"
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

// serve serves an already-built Server (e.g. one whose execHook is set)
// over real HTTP and stops it gracefully with the test.
func serve(t *testing.T, s *Server) string {
	t.Helper()
	in, err := Serve(s, "")
	if err != nil {
		s.Close()
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() {
		if err := in.Stop(); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	return in.URL
}

// crashable serves a fresh Server that the test means to crash: kill
// is Instance.Kill, run at most once, and also registered as cleanup,
// so a failing test leaves no live incarnation behind.
func crashable(t *testing.T, cfg Config) (s *Server, base string, kill func()) {
	t.Helper()
	s = newT(t, cfg)
	in, err := Serve(s, "")
	if err != nil {
		s.Close()
		t.Fatalf("Serve: %v", err)
	}
	var once sync.Once
	kill = func() { once.Do(in.Kill) }
	t.Cleanup(kill)
	return s, in.URL, kill
}

// startTest serves a fresh Server and tears it down with the test.
func startTest(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := newT(t, cfg)
	return s, serve(t, s)
}

// heldOutput is the summary of every job a held server finishes.
const heldOutput = "held job done\n"

// hold serves a fresh Server whose every job parks until release (or
// its own context ending), so queue-full, drain, and quota conditions
// are deterministic regardless of engine speed. release is idempotent
// and also runs at cleanup, before the server stops — Stop drains, and
// a drain waits for the parked jobs.
func hold(t *testing.T, cfg Config) (s *Server, base string, release func()) {
	t.Helper()
	s = newT(t, cfg)
	ch := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	// Installed before serving: a hook written after the Serve goroutine
	// starts has no happens-before edge to the handlers.
	s.execHook = func(j *job) (bool, string, error) {
		select {
		case <-ch:
			return true, heldOutput, nil
		case <-j.ctx.Done():
			return false, "", j.ctx.Err()
		}
	}
	base = serve(t, s)
	t.Cleanup(release)
	return s, base, release
}

// post submits a job under tenant and returns the unread response.
// Test goroutine only (it may Fatal).
func post(t *testing.T, base, tenant string, req Request) *http.Response {
	t.Helper()
	resp, err := PostJob(context.Background(), base, tenant, req)
	if err != nil {
		t.Fatalf("POST /jobs as %q: %v", tenant, err)
	}
	return resp
}

// streamed is one job stream as its client saw it.
type streamed struct {
	status       int
	header       http.Header
	output       string // the reconstructed stream; the error body on a non-200
	ok, complete bool
	errText      string
}

// read consumes resp: a 200 stream through StreamResult, anything else
// as an error body.
func read(resp *http.Response) streamed {
	defer resp.Body.Close()
	st := streamed{status: resp.StatusCode, header: resp.Header}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		st.output = string(msg)
		return st
	}
	st.output, st.ok, st.complete, st.errText = StreamResult(resp.Body)
	return st
}

// tryPost posts a job and consumes its whole stream. It never touches
// testing.T, so goroutines may call it; a transport error or an
// incomplete 200 stream is returned as an error.
func tryPost(base string, req Request) (streamed, error) {
	resp, err := PostJob(context.Background(), base, "", req)
	if err != nil {
		return streamed{}, err
	}
	st := read(resp)
	if st.status == http.StatusOK && !st.complete {
		return st, fmt.Errorf("incomplete stream: %s", st.errText)
	}
	return st, nil
}

// postStream is tryPost for the test goroutine: any error is fatal.
func postStream(t *testing.T, base string, req Request) streamed {
	t.Helper()
	st, err := tryPost(base, req)
	if err != nil {
		t.Fatalf("POST %+v: %v (so far: %q)", req, err, st.output)
	}
	return st
}

// attach re-attaches to job id's stream via GET /jobs/{id} and returns
// the unread response.
func attach(t *testing.T, base string, id uint64) *http.Response {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// reattach re-attaches to job id's stream and consumes it.
func reattach(t *testing.T, base string, id uint64) streamed {
	t.Helper()
	return read(attach(t, base, id))
}

// abandon reads up to n events of a 200 job stream and hangs up — the
// mid-stream client disconnect — returning the first event.
func abandon(t *testing.T, resp *http.Response, n int) Event {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var first Event
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < n; i++ {
		var ev Event
		if dec.Decode(&ev) != nil {
			break
		}
		if i == 0 {
			first = ev
		}
	}
	return first
}

// waitMetric polls a server-side condition until it holds or the
// deadline lapses. Test goroutine only.
func waitMetric(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: condition never held", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// durableShards is how many shard digests of s's only job an fsync
// covers: every synced record past the job's accept. It holds for an
// incarnation that admitted or replayed exactly one job.
func durableShards(s *Server) uint64 {
	return max(s.store.Stats().Synced, 1) - 1
}

// golden is what `uexc-bench -faultcampaign|-difftest -seeds N -v`
// prints at width 1 — the progress stream followed by the summary —
// for a campaign or difftest job of the given size. It defines the
// serving layer's byte-identity contract: StreamResult's
// reconstruction of that job's stream must equal it at any shard
// width and across kills and resumes.
func golden(t *testing.T, typ Type, seeds int) string {
	t.Helper()
	var b strings.Builder
	res, err := sweeps[typ].Resume(context.Background(), sweep.Options{Seeds: seeds, Workers: 1, Progress: &b}, nil, nil)
	if err != nil {
		t.Fatalf("%s golden: %v", typ, err)
	}
	b.WriteString(res.Summary())
	return b.String()
}

// fetchMetrics reads one /metrics snapshot over HTTP, exactly as an
// operator's scraper sees it.
func fetchMetrics(t *testing.T, base string) Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	return snap
}

// checkGauges asserts the gauge invariants: no gauge — global or
// per-tenant — may ever read negative, and once the instance is quiet
// they must all have returned to exactly zero. A nonzero residue here
// means a transition was double-counted or skipped somewhere in the
// admit/dequeue/finish path.
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
