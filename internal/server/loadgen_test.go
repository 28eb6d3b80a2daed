package server

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryWaitHonorsHint pins the client backoff contract: the
// server's Retry-After hint is honored in full (never undercut),
// jitter adds at most half the wait on top, consecutive rejections
// double the base up to 8x, and the whole schedule is deterministic —
// a failing burst replays identically.
func TestRetryWaitHonorsHint(t *testing.T) {
	const hint = time.Second
	for rejection := 1; rejection <= 6; rejection++ {
		base := hint
		for i := 1; i < rejection && i < 4; i++ {
			base *= 2
		}
		for job := 0; job < 50; job++ {
			w := retryWait(hint, job, rejection)
			if w < base {
				t.Fatalf("job %d rejection %d: wait %v undercuts the %v hint", job, rejection, w, base)
			}
			if w > base+base/2 {
				t.Fatalf("job %d rejection %d: wait %v exceeds hint+50%% jitter (%v)", job, rejection, w, base+base/2)
			}
			if again := retryWait(hint, job, rejection); again != w {
				t.Fatalf("job %d rejection %d: nondeterministic wait %v vs %v", job, rejection, w, again)
			}
		}
	}
	// The jitter must actually spread the herd: 50 jobs bounced by the
	// same burst may not all sleep the same duration.
	distinct := map[time.Duration]bool{}
	for job := 0; job < 50; job++ {
		distinct[retryWait(hint, job, 1)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all 50 jobs picked the same wait; jitter is not keyed on the job")
	}
}

// TestRetryWaitClamped pins the hot-loop fix: a zero or missing hint
// (retryWait sees 0) must still pause at least minRetryWait — a client
// bounced off a full queue may never spin re-POSTing at network speed —
// and an absurd hint is capped at maxRetryWait before jitter.
func TestRetryWaitClamped(t *testing.T) {
	for rejection := 1; rejection <= 6; rejection++ {
		for job := 0; job < 50; job++ {
			w := retryWait(0, job, rejection)
			if w < minRetryWait {
				t.Fatalf("job %d rejection %d: zero hint slept only %v (< %v): hot retry loop",
					job, rejection, w, minRetryWait)
			}
			if w > minRetryWait+minRetryWait/2 {
				t.Fatalf("job %d rejection %d: zero hint slept %v (> floor + 50%% jitter)",
					job, rejection, w)
			}
		}
	}
	for rejection := 1; rejection <= 6; rejection++ {
		w := retryWait(time.Hour, 0, rejection)
		if w > maxRetryWait+maxRetryWait/2 {
			t.Fatalf("rejection %d: 1h hint slept %v, want <= cap + 50%% jitter", rejection, w)
		}
		if w < maxRetryWait {
			t.Fatalf("rejection %d: 1h hint slept %v, want >= %v cap", rejection, w, maxRetryWait)
		}
	}
	// The doubling itself must not escape the cap: a large-but-sane hint
	// doubled 3x lands on the ceiling, not 8x the hint.
	if w := retryWait(5*time.Second, 0, 4); w > maxRetryWait+maxRetryWait/2 {
		t.Fatalf("doubled wait %v escaped the %v cap", w, maxRetryWait)
	}
}

// TestPostJobMissingRetryAfterRetries is the regression test for the
// zero-sleep bug's sibling: a 429 with NO Retry-After header used to
// hard-fail the job. Backpressure without a hint is still backpressure;
// the client must pause politely and retry to completion.
func TestPostJobMissingRetryAfterRetries(t *testing.T) {
	var rejects atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		if rejects.Add(1) <= 2 {
			// Deliberately no Retry-After header.
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		h := fnv.New64a()
		records := 0
		emit := func(ev Event) {
			line, _ := json.Marshal(ev)
			w.Write(append(line, '\n'))
			h.Write(append(line, '\n'))
			records++
		}
		ok := true
		emit(Event{Type: "accepted", ID: 1, Job: "program-run"})
		emit(Event{Type: "result", ID: 1, OK: &ok, Summary: "done\n"})
		line, _ := json.Marshal(Event{Type: "trailer", ID: 1, Records: records, FNV: fmt.Sprintf("%016x", h.Sum64())})
		w.Write(append(line, '\n'))
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	start := time.Now()
	out := postJob(context.Background(), hs.URL, 0, Request{Type: TypeProgramRun, Seed: 1}, 0)
	if !out.complete || !out.ok {
		t.Fatalf("job against a hint-less 429 server: complete=%v ok=%v err=%q",
			out.complete, out.ok, out.errText)
	}
	if out.retries[0] != 2 {
		t.Errorf("retries = %d, want 2", out.retries[0])
	}
	// Two headerless rejections must still have slept >= 2 floors.
	if el := time.Since(start); el < 2*minRetryWait {
		t.Errorf("completed in %v: headerless 429s were retried without the minimum pause", el)
	}
}

// TestLoadgenBackpressureRetryHistogram forces a saturated server —
// one worker and one queue slot, both pinned by held jobs — so every
// loadgen client bounces off admission at least once, then releases
// the logjam and checks the burst completes with an internally
// consistent retry histogram.
func TestLoadgenBackpressureRetryHistogram(t *testing.T) {
	s, base, release := hold(t, Config{Workers: 1, QueueDepth: 1})

	// Pin the worker, then the queue slot, strictly in turn.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := tryPost(base, Request{Type: TypeProgramRun, Seed: 1})
			results <- err
		}()
		inFlight, queued := int64(1), 0
		if i == 1 {
			queued = 1
		}
		waitMetric(t, "saturation", func() bool {
			return s.metrics.InFlight.Load() == inFlight && len(s.queue) == queued
		})
	}

	go func() { time.Sleep(50 * time.Millisecond); release() }()
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: base, Jobs: 4, Concurrency: 2, RetryCap: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("loadgen against a saturated server: %v\nreport: %+v", err, rep)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("pinned job %d: %v", i, err)
		}
	}
	if rep.OK != 4 {
		t.Fatalf("report: %+v", rep)
	}
	// The server was saturated when the burst began, so both leading
	// clients must have been bounced at least once.
	if rep.Retried429 < 2 {
		t.Errorf("Retried429 = %d, want >= 2 (burst began against a full queue)", rep.Retried429)
	}
	jobs, retries := 0, 0
	for n, v := range rep.RetryHistogram {
		jobs += v
		retries += n * v
	}
	if jobs != rep.Jobs {
		t.Errorf("histogram covers %d jobs, want %d", jobs, rep.Jobs)
	}
	if retries != rep.Retried429+rep.Retried503 {
		t.Errorf("histogram sums to %d retries, counters say %d", retries, rep.Retried429+rep.Retried503)
	}
	var buf strings.Builder
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "retry histogram:") {
		t.Errorf("render omits the retry histogram:\n%s", buf.String())
	}
}
