package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uexc/internal/harness"
)

// startWorkers brings up n plain worker servers and returns their base
// URLs. Each worker is an ordinary Server — coordinator mode needs
// nothing special on the worker side.
func startWorkers(t *testing.T, n int, cfg Config) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		_, urls[i] = startTest(t, cfg)
	}
	return urls
}

// TestDistributedByteIdentity: a coordinator fanning a sweep out to two
// workers streams output byte-identical to the serial single-node run,
// for both distributable job types — the §13 acceptance bar.
func TestDistributedByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns across a fleet")
	}
	const seeds = 6
	workers := startWorkers(t, 2, Config{Workers: 2, QueueDepth: 8})
	coord, base := startTest(t, Config{
		Workers: 2, QueueDepth: 4,
		WorkerNodes: workers, DispatchShards: 4,
	})

	for _, typ := range []Type{TypeCampaign, TypeDifftest} {
		t.Run(string(typ), func(t *testing.T) {
			st := postStream(t, base, Request{Type: typ, Seeds: seeds, Parallel: 4, Verbose: true})
			if !st.ok {
				t.Fatalf("distributed %s failed: %s", typ, st.errText)
			}
			if want := golden(t, typ, seeds); st.output != want {
				t.Errorf("distributed stream differs from the serial run\n--- distributed ---\n%s--- golden ---\n%s",
					st.output, want)
			}
		})
	}

	if got := coord.snapshot().FleetDispatches; got < 2 {
		t.Errorf("FleetDispatches = %d, want >= 2", got)
	}
	if d, a := coord.snapshot().FleetDispatches, coord.snapshot().FleetAcks; d != a {
		t.Errorf("FleetDispatches = %d but FleetAcks = %d; healthy dispatches must all ack", d, a)
	}
	// Point jobs stay local: no dispatch for a program-run.
	before := coord.snapshot().FleetDispatches
	if st := postStream(t, base, Request{Type: TypeProgramRun, Seed: 3}); !st.ok {
		t.Fatalf("program-run on coordinator failed: %s", st.errText)
	}
	if got := coord.snapshot().FleetDispatches; got != before {
		t.Errorf("program-run was dispatched to the fleet (dispatches %d -> %d)", before, got)
	}
}

// dyingWorker wraps one worker's handler so its first range dispatch
// dies mid-stream — a few events escape, then the connection is cut —
// and every later request is refused outright. From the coordinator's
// side this is a worker killed mid-shard-range that never comes back.
type dyingWorker struct {
	inner http.Handler
	dead  atomic.Bool
}

func (d *dyingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
		if d.dead.Swap(true) {
			http.Error(w, "worker killed", http.StatusServiceUnavailable)
			return
		}
		d.inner.ServeHTTP(&abortAfter{ResponseWriter: w, budget: 600}, r)
		return
	}
	d.inner.ServeHTTP(w, r)
}

// abortAfter lets a bounded number of response bytes through, then
// aborts the handler — the in-process stand-in for SIGKILL cutting a
// worker's TCP stream mid-event.
type abortAfter struct {
	http.ResponseWriter
	budget int
}

func (a *abortAfter) Write(p []byte) (int, error) {
	a.budget -= len(p)
	if a.budget < 0 {
		panic(http.ErrAbortHandler)
	}
	return a.ResponseWriter.Write(p)
}

func (a *abortAfter) Flush() {
	if f, ok := a.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestDistributedWorkerKillMidRange: one of two workers dies partway
// through streaming its first range and stays dead. The coordinator
// requeues the unfinished range to the survivor, the duplicate shards
// it already merged are ignored below the frontier, and the final
// stream is still byte-identical to the serial run.
func TestDistributedWorkerKillMidRange(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns across a worker kill")
	}
	const seeds = 6
	healthy := startWorkers(t, 1, Config{Workers: 2, QueueDepth: 8})

	victim := newT(t, Config{Workers: 2, QueueDepth: 8})
	dw := &dyingWorker{inner: victim.Handler()}
	vs := httptest.NewServer(dw)
	t.Cleanup(func() {
		vs.Close()
		victim.Close()
	})

	coord, base := startTest(t, Config{
		Workers: 1, QueueDepth: 4,
		WorkerNodes: []string{healthy[0], vs.URL},
		// Two ranges minimum, so both dispatchers pull one immediately
		// and the victim's death is guaranteed to strand a range.
		DispatchShards:   (harness.CampaignShards(seeds) + 1) / 2,
		WorkerQuarantine: 50 * time.Millisecond,
		ShardBackoff:     time.Millisecond,
	})

	st := postStream(t, base, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 2, Verbose: true})
	if !st.ok {
		t.Fatalf("campaign failed despite a surviving worker: %s", st.errText)
	}
	if want := golden(t, TypeCampaign, seeds); st.output != want {
		t.Errorf("stream across a worker kill differs from the serial run\n--- distributed ---\n%s--- golden ---\n%s",
			st.output, want)
	}
	if got := coord.snapshot().FleetRedispatches; got < 1 {
		t.Errorf("FleetRedispatches = %d, want >= 1 (the victim's range had to move)", got)
	}
	if !dw.dead.Load() {
		t.Error("the victim worker never received a dispatch; the kill was not exercised")
	}
}

// overrunWorker wraps one worker's handler so every range job streams
// one shard event past its range — a copy of the last shard's digest
// under the next index — with the trailer recomputed over the doctored
// stream, so only the range check can catch it.
type overrunWorker struct{ inner http.Handler }

func (o overrunWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/jobs" {
		o.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	o.inner.ServeHTTP(rec, r)
	var lines [][]byte
	var last Event
	for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		switch ev.Type {
		case "trailer":
			continue
		case "result":
			if last.Shard != nil {
				extra := last
				next := *last.Shard + 1
				extra.Shard = &next
				blob, _ := json.Marshal(extra)
				lines = append(lines, blob)
			}
		case "shard":
			last = ev
		}
		lines = append(lines, line)
	}
	h := fnv.New64a()
	for _, line := range lines {
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	trailer, _ := json.Marshal(Event{Type: "trailer", Records: len(lines), FNV: fmt.Sprintf("%016x", h.Sum64())})
	w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
	w.WriteHeader(rec.Code)
	w.Write(append(bytes.Join(append(lines, trailer), []byte("\n")), '\n'))
}

// TestDistributedWorkerOverrunsRange: a worker that streams a shard
// past its range fails that range before the shard reaches the merge.
// As the only worker it poisons the job with the typed error and the
// coordinator lives on to serve the next job; beside an honest worker
// the range moves there and the stream is the serial run's.
func TestDistributedWorkerOverrunsRange(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns across a lying worker")
	}
	liar := func() string {
		inner := newT(t, Config{Workers: 2, QueueDepth: 8})
		hs := httptest.NewServer(overrunWorker{inner.Handler()})
		t.Cleanup(func() {
			hs.Close()
			inner.Close()
		})
		return hs.URL
	}
	fast := Config{Workers: 1, QueueDepth: 4, WorkerQuarantine: 10 * time.Millisecond, ShardBackoff: time.Millisecond}

	alone := fast
	alone.WorkerNodes = []string{liar()}
	alone.DispatchShards = harness.CampaignShards(1) // one range: the extra shard is past the whole space
	coord, base := startTest(t, alone)
	st := postStream(t, base, Request{Type: TypeCampaign, Seeds: 1, Parallel: 2, Verbose: true})
	if st.ok {
		t.Fatal("campaign succeeded on a worker that streams past its range")
	}
	for _, want := range []string{"poison shard quarantined", "streamed past range [0,6)"} {
		if !strings.Contains(st.errText, want) {
			t.Errorf("terminal error %q missing %q", st.errText, want)
		}
	}
	if got := coord.snapshot().JobsFailed; got != 1 {
		t.Errorf("JobsFailed = %d, want 1", got)
	}
	if st := postStream(t, base, Request{Type: TypeProgramRun, Seed: 3}); !st.ok {
		t.Fatalf("coordinator unusable after the lying worker: %s", st.errText)
	}

	const seeds = 2
	beside := fast
	beside.WorkerNodes = []string{startWorkers(t, 1, Config{Workers: 2, QueueDepth: 8})[0], liar()}
	beside.DispatchShards = 3
	_, base = startTest(t, beside)
	st = postStream(t, base, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 2, Verbose: true})
	if !st.ok {
		t.Fatalf("campaign failed despite an honest worker: %s", st.errText)
	}
	if want := golden(t, TypeCampaign, seeds); st.output != want {
		t.Errorf("stream beside a lying worker differs from the serial run\n--- distributed ---\n%s--- golden ---\n%s",
			st.output, want)
	}
}

// TestDistributedAllWorkersPoisoned: when every worker deterministically
// fails the same shard, re-dispatch cannot save the range; after the
// attempt budget the job fails with the §12 typed poison error, and the
// healthy ranges' work still merged cleanly first.
func TestDistributedAllWorkersPoisoned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns across a poisoned fleet")
	}
	const seeds = 4
	poison := Config{
		Workers: 2, QueueDepth: 8,
		ShardAttempts: 1,
		shardFault: func(job uint64, shard, attempt int) ShardFault {
			return ShardFault{Panic: shard == 5}
		},
	}
	workers := startWorkers(t, 2, poison)
	coord, base := startTest(t, Config{
		Workers: 1, QueueDepth: 4,
		WorkerNodes: workers, DispatchShards: 4,
		ShardAttempts:    2, // maxAttempts = max(2, nodes+1) = 3
		WorkerQuarantine: 20 * time.Millisecond,
		ShardBackoff:     time.Millisecond,
	})

	st := postStream(t, base, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 2})
	if st.ok {
		t.Fatal("campaign succeeded although every worker poisons shard 5")
	}
	for _, want := range []string{"poison shard quarantined", "shard 5"} {
		if !strings.Contains(st.errText, want) {
			t.Errorf("terminal error %q missing %q", st.errText, want)
		}
	}
	if got := coord.snapshot().JobsFailed; got != 1 {
		t.Errorf("coordinator JobsFailed = %d, want 1", got)
	}
	if got := coord.snapshot().FleetRedispatches; got < 2 {
		t.Errorf("FleetRedispatches = %d, want >= 2 (the poisoned range must burn its budget)", got)
	}
}

// TestDistributedCoordinatorKillResume: a durable coordinator is killed
// mid-fan-out after journaling merged digests; its next incarnation
// re-admits the job, replays the durable prefix, dispatches only the
// remainder, and the re-attached stream equals the undisturbed serial
// run byte for byte.
func TestDistributedCoordinatorKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns across a coordinator kill")
	}
	const seeds = 6
	want := golden(t, TypeCampaign, seeds)
	space := harness.CampaignShards(seeds)

	// Workers stall every shard a little so the kill lands mid-sweep.
	var stall atomic.Bool
	stall.Store(true)
	workers := startWorkers(t, 2, Config{
		Workers: 2, QueueDepth: 8,
		ShardDeadline: time.Minute,
		shardFault: func(job uint64, shard, attempt int) ShardFault {
			if stall.Load() {
				return ShardFault{Stall: 40 * time.Millisecond}
			}
			return ShardFault{}
		},
	})

	dir := t.TempDir()
	s1, base1, kill1 := crashable(t, Config{
		Workers: 1, QueueDepth: 4,
		StoreDir:    dir,
		WorkerNodes: workers, DispatchShards: 3,
	})
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		tryPost(base1, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 2, Verbose: true})
	}()

	waitMetric(t, "durable fleet progress before kill", func() bool {
		return durableShards(s1) >= 2 && s1.snapshot().FleetAcks >= 1
	})
	kill1()
	<-posted
	stall.Store(false)

	s2, base2 := startTest(t, Config{
		Workers: 1, QueueDepth: 4,
		StoreDir: dir, Resume: true,
		WorkerNodes: workers, DispatchShards: 3,
	})

	if got := s2.snapshot().ReplayedJobs; got != 1 {
		t.Fatalf("ReplayedJobs = %d, want 1", got)
	}
	resumed := s2.snapshot().ResumedShards
	if resumed == 0 {
		t.Error("ResumedShards = 0; the coordinator lost its merge frontier")
	}
	if resumed >= uint64(space) {
		t.Errorf("ResumedShards = %d of %d; nothing was left to dispatch", resumed, space)
	}

	st := reattach(t, base2, 1)
	if !st.complete || !st.ok {
		t.Fatalf("resumed distributed job did not complete cleanly: %+v", st)
	}
	if st.output != want {
		t.Errorf("resumed distributed stream differs from the serial run\n--- resumed ---\n%s--- golden ---\n%s",
			st.output, want)
	}
	// The second incarnation dispatched only past the frontier.
	maxRanges := (space-int(resumed))/3 + 1
	if got := s2.snapshot().FleetDispatches; got > uint64(maxRanges) {
		t.Errorf("incarnation B FleetDispatches = %d, want <= %d (must not re-run the durable prefix)",
			got, maxRanges)
	}
}
