package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uexc/internal/harness"
)

// TestDurableJobSurvivesKillAndResumes is the acceptance scenario: a
// campaign job is admitted on a durable server, the server is killed
// mid-campaign (journal abandoned mid-batch, no finish record), and a
// fresh incarnation opened on the same store with Resume re-admits the
// job, resumes it from the durable shard prefix, and streams — via
// GET /jobs/{id} re-attach — output byte-identical to a run that was
// never interrupted.
func TestDurableJobSurvivesKillAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns across a kill")
	}
	const seeds = 6
	dir := t.TempDir()

	want := golden(t, TypeCampaign, seeds)

	// Incarnation A: stall one late shard so the campaign reliably
	// outlives the kill trigger.
	stallShard := harness.CampaignShards(seeds) - 3
	s1, base1, kill1 := crashable(t, Config{
		Workers: 1, QueueDepth: 4,
		StoreDir: dir,
		shardFault: func(job uint64, shard, attempt int) ShardFault {
			if shard == stallShard {
				return ShardFault{Stall: 30 * time.Second}
			}
			return ShardFault{}
		},
	})

	clientDone := make(chan streamed, 1)
	go func() {
		st, _ := tryPost(base1, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 2, Verbose: true})
		clientDone <- st
	}()

	// Kill only after real progress is durable: several shard digests
	// fsynced, while the stalled shard pins the job mid-flight.
	waitMetric(t, "durable shards before kill", func() bool {
		return durableShards(s1) >= 5 && s1.snapshot().ShardStalls >= 1
	})
	kill1()
	// The job must have died unfinished — and the journal must carry no
	// finish record (proven below by the replay).
	if st := <-clientDone; st.ok {
		t.Fatalf("job finished ok across a kill: %+v", st)
	}
	if got := s1.snapshot().JobsCancelled; got != 1 {
		t.Errorf("incarnation A JobsCancelled = %d, want 1", got)
	}

	// Incarnation B: same store, resume on. No faults this time.
	s2, base2 := startTest(t, Config{Workers: 1, QueueDepth: 4, StoreDir: dir, Resume: true})

	if got := s2.snapshot().Restarts; got != 1 {
		t.Errorf("Restarts = %d, want 1", got)
	}
	if got := s2.snapshot().ReplayedJobs; got != 1 {
		t.Fatalf("ReplayedJobs = %d, want 1", got)
	}
	if got := s2.snapshot().ResumedShards; got == 0 {
		t.Error("ResumedShards = 0; the durable prefix was lost")
	}
	if got := s2.snapshot().ResumedShards; got > uint64(stallShard) {
		t.Errorf("ResumedShards = %d, beyond the stalled shard %d", got, stallShard)
	}

	// Re-attach to the replayed job and demand the undisturbed bytes.
	st := reattach(t, base2, 1)
	if !st.complete || !st.ok {
		t.Fatalf("resumed job did not complete cleanly: status=%d ok=%v complete=%v err=%s",
			st.status, st.ok, st.complete, st.errText)
	}
	if st.output != want {
		t.Errorf("resumed stream differs from the undisturbed run\n--- resumed ---\n%s--- golden ---\n%s",
			st.output, want)
	}
	if got := s2.snapshot().JobsOK; got != 1 {
		t.Errorf("incarnation B JobsOK = %d, want 1", got)
	}
}

// TestDurableClientDisconnectDoesNotCancel: with a store, a client
// walking away mid-stream leaves the journaled job running; its result
// is recovered later via GET /jobs/{id}.
func TestDurableClientDisconnectDoesNotCancel(t *testing.T) {
	s, base, release := hold(t, Config{Workers: 1, QueueDepth: 2, StoreDir: t.TempDir()})

	ctx, cancel := context.WithCancel(context.Background())
	resp, err := PostJob(ctx, base, "", Request{Type: TypeProgramRun, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitMetric(t, "job in flight", func() bool { return s.snapshot().InFlight == 1 })
	cancel() // client walks away
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The job must still be running: only release ends it.
	time.Sleep(20 * time.Millisecond)
	if got := s.snapshot().InFlight; got != 1 {
		t.Fatalf("InFlight = %d after disconnect; a durable job must not be cancelled by its client", got)
	}
	release()
	waitMetric(t, "job finished", func() bool { return s.snapshot().JobsOK == 1 })

	// Recover the full stream by re-attaching.
	if st := reattach(t, base, 1); !st.complete || !st.ok || st.output != heldOutput {
		t.Errorf("re-attached stream: %+v", st)
	}
	if got := s.snapshot().JobsCancelled; got != 0 {
		t.Errorf("JobsCancelled = %d, want 0", got)
	}
}

// TestPoisonShardQuarantine: a shard that fails every attempt is
// quarantined after ShardAttempts tries, failing the job with the
// typed *ShardError chain instead of wedging the service — on an
// ephemeral server and on a journal-backed one journaling every
// shard.
func TestPoisonShardQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	const seeds = 2
	for _, tc := range []struct {
		name  string
		store bool
	}{{"ephemeral", false}, {"journaled", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Workers: 1, QueueDepth: 2,
				ShardAttempts: 2, ShardBackoff: time.Millisecond,
				shardFault: func(job uint64, shard, attempt int) ShardFault {
					return ShardFault{Panic: shard == 3}
				},
			}
			if tc.store {
				cfg.StoreDir = t.TempDir()
			}
			s, base := startTest(t, cfg)
			st := postStream(t, base, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 1})
			if st.status != http.StatusOK {
				t.Fatalf("status %d", st.status)
			}
			if st.ok {
				t.Fatalf("job succeeded with a poison shard: %s", st.output)
			}
			for _, want := range []string{"poison shard quarantined", "shard 3", "2 attempts"} {
				if !strings.Contains(st.errText, want) {
					t.Errorf("terminal error %q missing %q", st.errText, want)
				}
			}
			snap := s.snapshot()
			if snap.ShardsPoisoned != 1 || snap.ShardRetries != 1 || snap.JobsFailed != 1 {
				// One retry before quarantine; quarantine is a failure, not a cancellation.
				t.Errorf("poisoned/retries/failed = %d/%d/%d, want 1/1/1",
					snap.ShardsPoisoned, snap.ShardRetries, snap.JobsFailed)
			}
			if snap.StoreEnabled != tc.store {
				t.Errorf("store enabled = %v, want %v", snap.StoreEnabled, tc.store)
			}
		})
	}
}

// TestTransientShardPanicRetriedByteIdentical: a shard panicking on
// its first attempt only is retried and the job's stream still equals
// the undisturbed CLI output — retries cannot perturb the
// deterministic merge.
func TestTransientShardPanicRetriedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	const seeds = 3
	want := golden(t, TypeCampaign, seeds)
	s, base := startTest(t, Config{
		Workers: 1, QueueDepth: 2,
		ShardAttempts: 3, ShardBackoff: time.Millisecond,
		shardFault: func(job uint64, shard, attempt int) ShardFault {
			return ShardFault{Panic: shard == 2 && attempt == 0}
		},
	})
	st := postStream(t, base, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 2, Verbose: true})
	if !st.ok {
		t.Fatalf("job failed despite retry budget: %s", st.errText)
	}
	if st.output != want {
		t.Errorf("retried stream differs from the undisturbed run\n--- retried ---\n%s--- golden ---\n%s",
			st.output, want)
	}
	if got := s.snapshot().ShardRetries; got != 1 {
		t.Errorf("ShardRetries = %d, want 1", got)
	}
	if got := s.snapshot().ShardsPoisoned; got != 0 {
		t.Errorf("ShardsPoisoned = %d, want 0", got)
	}
}

// TestShardErrorChain: the quarantine error is typed end to end —
// errors.Is sees ErrShardPoisoned, errors.As recovers the shard's
// identity, and the last attempt's failure is preserved as the cause.
func TestShardErrorChain(t *testing.T) {
	s := newT(t, Config{Workers: 1, QueueDepth: 1, ShardAttempts: 2, ShardBackoff: time.Microsecond})
	defer s.Close()
	j := &job{id: 7, log: newEventLog()}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	defer j.cancel()

	run := s.shardRunner(j)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		run(3, func() { panic("flaky hardware") })
	}()
	err, isErr := recovered.(error)
	if !isErr {
		t.Fatalf("quarantine panicked with %T, want *ShardError", recovered)
	}
	if !errors.Is(err, ErrShardPoisoned) {
		t.Errorf("errors.Is(err, ErrShardPoisoned) = false for %v", err)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("errors.As failed for %v", err)
	}
	if se.Job != 7 || se.Shard != 3 || se.Attempts != 2 {
		t.Errorf("ShardError = %+v, want job 7 shard 3 attempts 2", se)
	}
	if se.Err == nil || !strings.Contains(se.Err.Error(), "flaky hardware") {
		t.Errorf("cause %v does not preserve the attempt failure", se.Err)
	}
}

// TestRetryBackoffDeterministicAndBounded: the backoff schedule is a
// pure function of (base, attempt, job, shard), grows exponentially,
// and never exceeds base*2^k + 50% jitter capped at 1.5s.
func TestRetryBackoffDeterministicAndBounded(t *testing.T) {
	base := 5 * time.Millisecond
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := retryBackoff(base, attempt, 42, 7)
		d2 := retryBackoff(base, attempt, 42, 7)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		exp := base << (attempt - 1)
		if exp > time.Second {
			exp = time.Second
		}
		if d1 < exp || d1 > exp+exp/2 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d1, exp, exp+exp/2)
		}
	}
	if retryBackoff(base, 1, 42, 7) == retryBackoff(base, 1, 42, 8) &&
		retryBackoff(base, 1, 42, 7) == retryBackoff(base, 1, 42, 9) {
		t.Error("jitter identical across shards; retries would thunder in lockstep")
	}
}

// TestJobReattachRouting: /jobs/{id} rejects bad methods, bad IDs, and
// unknown jobs.
func TestJobReattachRouting(t *testing.T) {
	_, base := startTest(t, Config{Workers: 1, QueueDepth: 1})
	for path, want := range map[string]int{
		"/jobs/999": http.StatusNotFound,
		"/jobs/abc": http.StatusBadRequest,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(base+"/jobs/1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /jobs/1: status %d, want 405", resp.StatusCode)
	}
}

// TestStreamResultTrailerIntegrity: the client-side verifier rejects
// truncated streams, record-count lies, and fingerprint mismatches,
// and accepts a well-formed stream.
func TestStreamResultTrailerIntegrity(t *testing.T) {
	okv := true
	lines := func(evs ...Event) (string, string) {
		var b strings.Builder
		h := fnv.New64a()
		for _, ev := range evs {
			blob, _ := json.Marshal(ev)
			b.Write(blob)
			b.WriteByte('\n')
			h.Write(blob)
			h.Write([]byte{'\n'})
		}
		return b.String(), fmt.Sprintf("%016x", h.Sum64())
	}
	body, fp := lines(
		Event{Type: "accepted", ID: 1, Job: "program-run"},
		Event{Type: "progress", Line: "line one\n"},
		Event{Type: "result", ID: 1, OK: &okv, Summary: "done\n"},
	)
	trailer, _ := json.Marshal(Event{Type: "trailer", ID: 1, Records: 3, FNV: fp})

	out, ok, complete, errText := StreamResult(strings.NewReader(body + string(trailer) + "\n"))
	if !complete || !ok || out != "line one\ndone\n" {
		t.Fatalf("valid stream rejected: ok=%v complete=%v out=%q err=%s", ok, complete, out, errText)
	}

	// Truncated: result but no trailer.
	if _, _, complete, errText = StreamResult(strings.NewReader(body)); complete ||
		!strings.Contains(errText, "integrity trailer") {
		t.Errorf("truncated stream: complete=%v err=%q", complete, errText)
	}

	// Record-count lie.
	badCount, _ := json.Marshal(Event{Type: "trailer", ID: 1, Records: 2, FNV: fp})
	if _, _, complete, errText = StreamResult(strings.NewReader(body + string(badCount) + "\n")); complete ||
		!strings.Contains(errText, "records") {
		t.Errorf("bad record count: complete=%v err=%q", complete, errText)
	}

	// Fingerprint mismatch.
	badFP, _ := json.Marshal(Event{Type: "trailer", ID: 1, Records: 3, FNV: "0000000000000000"})
	if _, _, complete, errText = StreamResult(strings.NewReader(body + string(badFP) + "\n")); complete ||
		!strings.Contains(errText, "fingerprint") {
		t.Errorf("bad fingerprint: complete=%v err=%q", complete, errText)
	}

	// Transport failure after the accepted event: reported as such, not
	// as a clean end of stream.
	accepted, _ := lines(Event{Type: "accepted", ID: 1, Job: "program-run"})
	reset := io.MultiReader(strings.NewReader(accepted), failingReader{errors.New("connection reset by peer")})
	if _, _, complete, errText = StreamResult(reset); complete ||
		!strings.Contains(errText, "connection reset by peer") {
		t.Errorf("reset stream: complete=%v err=%q", complete, errText)
	}
}

// failingReader fails every read with err.
type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// TestNoWorkerWaitsOnFsync: merging a shard never waits on the disk.
// With every journal fsync after the admission's parked, a durable
// Parallel: 1 campaign still merges all of its shards — its progress
// stream is complete — and only its finish record waits, holding the
// job's result until the disk comes back.
func TestNoWorkerWaitsOnFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	const seeds = 2
	want := golden(t, TypeCampaign, seeds)
	var syncs atomic.Int32
	release := make(chan struct{})
	s, base := startTest(t, Config{
		Workers: 1, QueueDepth: 2, StoreDir: t.TempDir(),
		storeSyncDelay: func() {
			if syncs.Add(1) > 1 { // the admission's fsync passes
				<-release
			}
		},
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	clientDone := make(chan streamed, 1)
	go func() {
		st, _ := tryPost(base, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 1, Verbose: true})
		clientDone <- st
	}()
	shards := harness.CampaignShards(seeds)
	waitMetric(t, "every shard merged with the disk parked", func() bool {
		return progressEvents(s, 1) == shards
	})
	waitMetric(t, "finish record appended", func() bool { return s.store.Stats().Appends == uint64(2+shards) })
	time.Sleep(20 * time.Millisecond)
	select {
	case st := <-clientDone:
		t.Fatalf("job stream ended before its finish record was durable: %+v", st)
	default:
	}
	if st := s.store.Stats(); st.Syncs != 1 || st.Synced != 1 {
		t.Fatalf("journal stats = %+v, want only the admission durable", st)
	}

	close(release)
	st := <-clientDone
	if !st.complete || !st.ok || st.output != want {
		t.Fatalf("job after the disk came back: ok=%v complete=%v\n--- got ---\n%s--- golden ---\n%s",
			st.ok, st.complete, st.output, want)
	}
}

// TestMetricsWaitForFinishRecord: /metrics reports a durable job
// finished only once its finish record is durable. With every journal
// fsync after the admission's parked, a campaign that has run to the
// end still reads in flight and not yet ok; when the disk comes back
// the gauge and the counter settle together.
func TestMetricsWaitForFinishRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	const seeds = 2
	var syncs atomic.Int32
	release := make(chan struct{})
	s, base := startTest(t, Config{
		Workers: 1, QueueDepth: 2, StoreDir: t.TempDir(),
		storeSyncDelay: func() {
			if syncs.Add(1) > 1 { // the admission's fsync passes
				<-release
			}
		},
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	clientDone := make(chan streamed, 1)
	go func() {
		st, _ := tryPost(base, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 1})
		clientDone <- st
	}()
	shards := harness.CampaignShards(seeds)
	waitMetric(t, "finish record appended", func() bool { return s.store.Stats().Appends == uint64(2+shards) })
	time.Sleep(20 * time.Millisecond)
	if m := fetchMetrics(t, base); m.InFlight != 1 || m.JobsOK != 0 {
		t.Fatalf("with the finish record not durable: inflight %d, ok %d; want 1, 0", m.InFlight, m.JobsOK)
	}

	close(release)
	if st := <-clientDone; !st.complete || !st.ok {
		t.Fatalf("job after the disk came back: ok=%v complete=%v", st.ok, st.complete)
	}
	if m := fetchMetrics(t, base); m.InFlight != 0 || m.JobsOK != 1 {
		t.Fatalf("after the result event: inflight %d, ok %d; want 0, 1", m.InFlight, m.JobsOK)
	}
}

// progressEvents counts job id's progress events so far.
func progressEvents(s *Server, id uint64) int {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return 0
	}
	j.log.mu.Lock()
	defer j.log.mu.Unlock()
	n := 0
	for _, ev := range j.log.events {
		if ev.Type == "progress" {
			n++
		}
	}
	return n
}
