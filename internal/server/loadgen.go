package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LoadConfig drives the built-in load generator.
type LoadConfig struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8612".
	BaseURL string
	// Jobs is the total number of jobs to complete; Concurrency is the
	// number of client goroutines issuing them.
	Jobs, Concurrency int
	// CampaignSeeds / DifftestSeeds size the heavyweight jobs in the
	// mix (<=0: 3 / 2).
	CampaignSeeds, DifftestSeeds int
	// IncludeSweeps mixes in figure-sweep jobs (heavier: each boots
	// measurement machines).
	IncludeSweeps bool
	// Verbose requests per-run progress streaming on every job,
	// exercising the NDJSON path under load.
	Verbose bool
	// RetryCap optionally caps the backpressure sleep (tests use a few
	// milliseconds so forced-429 scenarios stay fast; 0: honor the
	// server's Retry-After in full).
	RetryCap time.Duration
}

// LoadReport is the client-side account of one load run. Dropped
// counts jobs that never completed a stream with a result event;
// Failed counts jobs whose result was ok=false. A healthy run has
// both at zero, with Retried429 typically nonzero — backpressure is
// the admission control working, not an error.
type LoadReport struct {
	Jobs        int            `json:"jobs"`
	Concurrency int            `json:"concurrency"`
	OK          int            `json:"ok"`
	Failed      int            `json:"failed"`
	Dropped     int            `json:"dropped"`
	Retried429  int            `json:"retried_429"`
	Retried503  int            `json:"retried_503"`
	ByType      map[string]int `json:"by_type"`
	// RetryHistogram maps retries-per-job to the number of jobs that
	// needed exactly that many backpressure retries before admission —
	// the shape of the herd, not just its size.
	RetryHistogram map[int]int `json:"retry_histogram"`

	DurationMS   int64   `json:"duration_ms"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	P50LatencyMS float64 `json:"p50_latency_ms"`
	P90LatencyMS float64 `json:"p90_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`
	MaxLatencyMS float64 `json:"max_latency_ms"`
}

// mixRequest deterministically maps a job index to a request, so a
// load run's composition depends only on (Jobs, config), never on
// scheduling.
func (cfg *LoadConfig) mixRequest(i int) Request {
	campaignSeeds, difftestSeeds := cfg.CampaignSeeds, cfg.DifftestSeeds
	if campaignSeeds <= 0 {
		campaignSeeds = 3
	}
	if difftestSeeds <= 0 {
		difftestSeeds = 2
	}
	switch {
	case i%10 == 0:
		return Request{Type: TypeCampaign, Seeds: campaignSeeds, Parallel: 1 + i%3, Verbose: cfg.Verbose}
	case i%10 == 5:
		return Request{Type: TypeDifftest, Seeds: difftestSeeds, Parallel: 1 + i%2, Verbose: cfg.Verbose}
	case cfg.IncludeSweeps && i%20 == 7:
		return Request{Type: TypeFigureSweep, Parallel: 1}
	default:
		modes := []string{"ultrix", "fast", "hardware"}
		return Request{Type: TypeProgramRun, Seed: int64(i), Mode: modes[i%3], Verbose: cfg.Verbose}
	}
}

// jobOutcome is one completed stream, as the client saw it.
type jobOutcome struct {
	req      Request
	ok       bool
	complete bool // stream ended with a result event
	output   string
	errText  string
	latency  time.Duration
	retries  [2]int // [429, 503]
}

// Bounds on the backpressure pause: a zero or missing Retry-After hint
// must never produce a zero-sleep hot retry loop (the client would spin
// re-POSTing a full queue as fast as the network allows), and the
// doubled wait must not grow past a ceiling a human would call "retry
// soon" — Retry-After is a hint, not a lease.
const (
	minRetryWait = 25 * time.Millisecond
	maxRetryWait = 8 * time.Second
)

// retryWait turns the server's Retry-After hint into the actual pause
// before the rejection-th re-post (1-based): the hinted duration is
// honored, doubled on consecutive rejections (capped at 8x) so a
// persistently full server sheds load, clamped to
// [minRetryWait, maxRetryWait], plus a deterministic jitter of up to
// half the wait keyed on (job, rejection) — 32 clients bounced by the
// same burst spread out instead of thundering back in lockstep. The
// floor is applied after the doubling: a zero hint (a server rounding
// sub-second waits down, or omitting the header) still pauses.
func retryWait(hinted time.Duration, jobIdx, rejection int) time.Duration {
	d := hinted
	for i := 1; i < rejection && i < 4; i++ {
		d *= 2
	}
	if d < minRetryWait {
		d = minRetryWait
	}
	if d > maxRetryWait {
		d = maxRetryWait
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", jobIdx, rejection)
	return d + time.Duration(h.Sum64()%uint64(d/2+1))
}

// postJob posts one job and consumes its stream, retrying on
// backpressure (429/503) until admitted or the context dies.
func postJob(ctx context.Context, base string, jobIdx int, req Request, retryCap time.Duration) jobOutcome {
	out := jobOutcome{req: req}
	start := time.Now()
	rejections := 0
	for {
		if ctx.Err() != nil {
			out.errText = ctx.Err().Error()
			return out
		}
		resp, err := PostJob(ctx, base, "", req)
		if err != nil {
			out.errText = err.Error()
			return out
		}
		switch resp.StatusCode {
		case http.StatusOK:
			out.output, out.ok, out.complete, out.errText = StreamResult(resp.Body)
			resp.Body.Close()
			out.latency = time.Since(start)
			return out
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			idx := 0
			if resp.StatusCode == http.StatusServiceUnavailable {
				idx = 1
			}
			out.retries[idx]++
			// A missing, malformed, or negative Retry-After is treated as
			// a zero hint: retryWait's floor turns it into the minimum
			// polite pause rather than a hot loop (or a dropped job —
			// backpressure without a usable hint is still backpressure).
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || secs < 0 {
				secs = 0
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rejections++
			wait := retryWait(time.Duration(secs)*time.Second, jobIdx, rejections)
			if retryCap > 0 && wait > retryCap {
				wait = retryCap
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				out.errText = ctx.Err().Error()
				return out
			}
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			out.errText = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
			return out
		}
	}
}

// RunLoad hammers the server with cfg.Jobs jobs from cfg.Concurrency
// client goroutines and reports throughput and latency percentiles.
// Latency is client-observed: from first POST attempt (including
// backpressure retries) to the terminal result event.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Jobs <= 0 || cfg.Concurrency <= 0 {
		return nil, fmt.Errorf("loadgen: jobs (%d) and concurrency (%d) must be positive", cfg.Jobs, cfg.Concurrency)
	}
	rep := &LoadReport{
		Jobs: cfg.Jobs, Concurrency: cfg.Concurrency,
		ByType: map[string]int{}, RetryHistogram: map[int]int{},
	}
	outcomes := make([]jobOutcome, cfg.Jobs)
	indices := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				outcomes[i] = postJob(ctx, cfg.BaseURL, i, cfg.mixRequest(i), cfg.RetryCap)
			}
		}()
	}
	for i := 0; i < cfg.Jobs; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()
	rep.DurationMS = time.Since(start).Milliseconds()

	var latencies []time.Duration
	var firstErr string
	for _, o := range outcomes {
		rep.ByType[string(o.req.Type)]++
		rep.Retried429 += o.retries[0]
		rep.Retried503 += o.retries[1]
		rep.RetryHistogram[o.retries[0]+o.retries[1]]++
		switch {
		case o.complete && o.ok:
			rep.OK++
			latencies = append(latencies, o.latency)
		case o.complete:
			rep.Failed++
		default:
			rep.Dropped++
		}
		if firstErr == "" && o.errText != "" {
			firstErr = fmt.Sprintf("%s job: %s", o.req.Type, o.errText)
		}
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(q float64) float64 {
			idx := int(q*float64(len(latencies))+0.5) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(latencies) {
				idx = len(latencies) - 1
			}
			return float64(latencies[idx].Microseconds()) / 1000
		}
		rep.P50LatencyMS = pct(0.50)
		rep.P90LatencyMS = pct(0.90)
		rep.P99LatencyMS = pct(0.99)
		rep.MaxLatencyMS = float64(latencies[len(latencies)-1].Microseconds()) / 1000
	}
	if sec := float64(rep.DurationMS) / 1000; sec > 0 {
		rep.JobsPerSec = float64(rep.OK) / sec
	}
	if rep.Failed+rep.Dropped > 0 {
		return rep, fmt.Errorf("loadgen: %d failed, %d dropped of %d jobs (first error: %s)",
			rep.Failed, rep.Dropped, rep.Jobs, firstErr)
	}
	return rep, nil
}

// Render writes the human-readable load report.
func (r *LoadReport) Render(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %d jobs x %d clients in %.2fs — %.1f jobs/s\n",
		r.Jobs, r.Concurrency, float64(r.DurationMS)/1000, r.JobsPerSec)
	types := make([]string, 0, len(r.ByType))
	for t := range r.ByType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Fprintf(w, "  %-14s %d\n", t, r.ByType[t])
	}
	fmt.Fprintf(w, "outcomes: ok %d, failed %d, dropped %d (retries: %d x 429, %d x 503)\n",
		r.OK, r.Failed, r.Dropped, r.Retried429, r.Retried503)
	if r.Retried429+r.Retried503 > 0 {
		counts := make([]int, 0, len(r.RetryHistogram))
		for n := range r.RetryHistogram {
			counts = append(counts, n)
		}
		sort.Ints(counts)
		fmt.Fprint(w, "retry histogram:")
		for _, n := range counts {
			fmt.Fprintf(w, "  %dx:%d", n, r.RetryHistogram[n])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "latency ms: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f\n",
		r.P50LatencyMS, r.P90LatencyMS, r.P99LatencyMS, r.MaxLatencyMS)
}
