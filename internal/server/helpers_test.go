package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
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

// reattach re-attaches to job id's stream via GET /jobs/{id} and
// consumes it.
func reattach(t *testing.T, base string, id uint64) streamed {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		t.Fatal(err)
	}
	return read(resp)
}

// postEvents posts a job and returns every raw event in the stream —
// for tests that inspect event kinds postStream's reconstruction hides
// (shard-range digests).
func postEvents(t *testing.T, base string, req Request) []Event {
	t.Helper()
	resp := post(t, base, "", req)
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

// golden is Golden for the test goroutine.
func golden(t *testing.T, typ Type, seeds int) string {
	t.Helper()
	g, err := Golden(context.Background(), typ, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
