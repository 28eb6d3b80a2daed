package server

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"uexc/internal/harness"
)

// The chaos gauntlet (DESIGN.md §12) runs one campaign job through
// seeded, deterministic faults — injected worker panics, shard stalls,
// slow fsyncs, mid-stream client disconnects, and in-process kills
// that abandon the journal mid-batch exactly as SIGKILL would — and
// holds the survivor to the two properties that make the fabric
// crash-tolerant:
//
//  1. byte-identity: the finally completed job's stream reconstructs
//     output byte-identical to a run that was never disturbed;
//  2. exact accounting: /metrics on the final incarnation reports
//     precisely the restarts, replayed jobs, resumed shards, and job
//     verdicts the harness itself observed.
//
// Every fault decision is a pure function of (plan seed, job, shard,
// attempt), so a failing plan reproduces by adding its seed as a row of
// the gauntlet's plan table.

// TestChaosGauntlet runs the kill/restart gauntlet under each plan:
// small-scale plans, and the full-scale run (30 seeds, 3 kills).
func TestChaosGauntlet(t *testing.T) {
	for _, c := range []struct {
		name         string
		seeds, kills int
		plan         int64
		full         bool
	}{
		{"plan-1", 4, 2, 1, false},
		{"plan-3", 4, 2, 3, false},
		{"plan-7", 4, 2, 7, false},
		{"full-scale", 30, 3, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.full && testing.Short() {
				t.Skip("full-scale gauntlet: campaigns across kills")
			}
			runChaos(t, c.seeds, c.kills, faultPlan{seed: c.plan})
		})
	}
}

// TestPlanDeterminism pins the property every reproduction relies on:
// the same plan seed yields the same fault decisions.
func TestPlanDeterminism(t *testing.T) {
	a, b := faultPlan{seed: 42}, faultPlan{seed: 42}
	other := faultPlan{seed: 43}
	same, diff := 0, 0
	for shard := 0; shard < 200; shard++ {
		fa, fb := a.fault(1, shard, 0), b.fault(1, shard, 0)
		if fa != fb {
			t.Fatalf("plan 42 disagrees with itself on shard %d: %+v vs %+v", shard, fa, fb)
		}
		if fa == other.fault(1, shard, 0) {
			same++
		} else {
			diff++
		}
		if ra := a.fault(1, shard, 1); ra.Panic || ra.Stall != 0 {
			t.Fatalf("retry attempt for shard %d is not clean: %+v", shard, ra)
		}
	}
	if diff == 0 {
		t.Fatalf("plans 42 and 43 agree on all %d shards; seed is not mixed in", same+diff)
	}
}

// faultPlan derives every fault decision from its seed.
type faultPlan struct{ seed int64 }

// hash mixes the plan seed with a shard attempt's identity.
func (p faultPlan) hash(job uint64, shard, attempt int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%d", p.seed, job, shard, attempt)
	return h.Sum64()
}

// fault injects transient faults: roughly one shard in eight panics on
// its first attempt (the retry must recover it), and every first
// attempt stalls a few hash-chosen milliseconds — the stall keeps each
// incarnation slow enough that the kill schedule always lands
// mid-campaign instead of racing the engines. Later attempts are
// clean, so no shard is poison here.
func (p faultPlan) fault(job uint64, shard, attempt int) ShardFault {
	if attempt != 0 {
		return ShardFault{}
	}
	h := p.hash(job, shard, attempt)
	if h%8 == 0 {
		return ShardFault{Panic: true}
	}
	return ShardFault{Stall: time.Duration(2+h%7) * time.Millisecond}
}

// slowSync is the slow-disk fault: it delays roughly every fifth
// journal fsync, chosen by hashing the sync's ordinal.
type slowSync struct {
	plan  faultPlan
	calls int
}

func (s *slowSync) delay() {
	s.calls++
	if s.plan.hash(0, s.calls, -1)%5 == 0 {
		time.Sleep(200 * time.Microsecond)
	}
}

// brake caps an incarnation's progress at a fixed shard-index limit:
// shards below the limit run normally, shards at or above it stall
// until the kill lands. Because the limit is on the *index* — not on
// how many shards happened to start — and workers take indices in
// ascending order, every allowed shard is handed out before any braked
// one and is guaranteed to complete no matter how the workers
// interleave, so the merge frontier deterministically reaches the
// limit and the campaign can never finish before its scheduled crash. The long stall
// stays under the shard deadline and aborts on job-context
// cancellation, so braked shards die with the incarnation instead of
// timing out.
type brake struct {
	plan    faultPlan
	limit   int
	once    sync.Once
	engaged chan struct{}
}

func (b *brake) fault(job uint64, shard, attempt int) ShardFault {
	if shard >= b.limit {
		b.once.Do(func() { close(b.engaged) })
		return ShardFault{Stall: 30 * time.Second}
	}
	return b.plan.fault(job, shard, attempt)
}

// admitAndAbandon posts req, reads just its accepted event, and hangs
// up — the mid-stream disconnect fault. The durable job must keep
// running without its client.
func admitAndAbandon(t *testing.T, base string, req Request) uint64 {
	t.Helper()
	ev := abandon(t, post(t, base, "", req), 1)
	if ev.Type != "accepted" {
		t.Fatalf("first event %+v is not accepted", ev)
	}
	return ev.ID
}

// waitJournalQuiesce waits until s has made at least one shard digest
// durable and its journal append counter has then held still, with
// every appended record fsynced, for a stretch of consecutive polls,
// and returns the settled count — the shards that finished ahead of
// the brake are all durable, so a kill cannot erase the life's
// progress.
func waitJournalQuiesce(t *testing.T, s *Server) uint64 {
	t.Helper()
	var last uint64
	stable := 0
	waitMetric(t, "journal quiesce", func() bool {
		st := s.store.Stats()
		if st.Checkpoints >= 1 && st.Synced == st.Appends && st.Appends == last {
			stable++
		} else {
			last, stable = st.Appends, 0
		}
		return stable >= 40
	})
	return last
}

// runChaos runs the kill/restart gauntlet against one campaign job:
// kills doomed incarnations, each braked mid-campaign, then a survivor
// that resumes from the journal and finishes.
func runChaos(t *testing.T, seeds, kills int, p faultPlan) {
	want := golden(t, TypeCampaign, seeds)
	space := harness.CampaignShards(seeds)
	// Doomed incarnation N is braked at shard index budget*(N+1), so
	// each life advances the frontier by about one budget; the last
	// braked limit must leave shards for the survivor, or the campaign
	// would finish before its final kill.
	budget := space/(kills+1) + 1
	if kills*budget >= space {
		t.Fatalf("%d seeds is too small for %d kills", seeds, kills)
	}
	dir := t.TempDir()
	cfg := func(resume bool, fault func(uint64, int, int) ShardFault) Config {
		return Config{
			Workers: 2, QueueDepth: 4,
			StoreDir: dir, Resume: resume,
			storeSyncDelay: (&slowSync{plan: p}).delay,
			ShardAttempts:  3, ShardBackoff: time.Millisecond,
			shardFault: fault,
		}
	}
	// A restarted incarnation must have replayed exactly our job, from
	// a nonempty durable prefix.
	checkReplay := func(s *Server, restarts int) {
		t.Helper()
		snap := s.snapshot()
		if snap.Restarts != uint64(restarts) || snap.ReplayedJobs != 1 || snap.ResumedShards == 0 {
			t.Fatalf("after kill %d: restarts/replayed/resumed shards = %d/%d/%d, want %d/1/>0",
				restarts, snap.Restarts, snap.ReplayedJobs, snap.ResumedShards, restarts)
		}
	}

	var id uint64
	for cycle := 0; cycle < kills; cycle++ {
		br := &brake{plan: p, limit: budget * (cycle + 1), engaged: make(chan struct{})}
		s, base, kill := crashable(t, cfg(cycle > 0, br.fault))
		if cycle == 0 {
			id = admitAndAbandon(t, base, Request{Type: TypeCampaign, Seeds: seeds, Parallel: 3, Verbose: true})
		} else {
			checkReplay(s, cycle)
			// Re-attach mid-run and hang up again: replay + disconnect.
			abandon(t, attach(t, base, id), 3)
		}
		// Wait for the brake to engage — a shard beyond this life's
		// limit has been reached and stalled — then for the journal to
		// quiesce, so the kill lands at a point whose durable prefix is
		// every shard this life merged.
		select {
		case <-br.engaged:
		case <-time.After(60 * time.Second):
			t.Fatalf("incarnation %d: brake never engaged", cycle)
		}
		appends := waitJournalQuiesce(t, s)
		kill()
		t.Logf("kill #%d after %d journaled records this life", cycle+1, appends)
	}

	// The survivor runs the plan faults only and is allowed to finish;
	// it records the lowest shard it runs, to hold it to the resume
	// rule: only shards past the durable prefix run again.
	var mu sync.Mutex
	lowest := space
	s, base := startTest(t, cfg(true, func(job uint64, shard, attempt int) ShardFault {
		mu.Lock()
		lowest = min(lowest, shard)
		mu.Unlock()
		return p.fault(job, shard, attempt)
	}))
	checkReplay(s, kills)
	st := reattach(t, base, id)
	if !st.complete || !st.ok {
		t.Fatalf("survivor stream incomplete (ok=%v complete=%v): %s", st.ok, st.complete, st.errText)
	}
	if st.output != want {
		t.Fatalf("survivor stream differs from the undisturbed run\n--- survivor ---\n%s--- golden ---\n%s", st.output, want)
	}
	snap := fetchMetrics(t, base)
	switch {
	case snap.Restarts != uint64(kills) || snap.ReplayedJobs != 1:
		t.Errorf("restarts/replayed = %d/%d, want %d/1", snap.Restarts, snap.ReplayedJobs, kills)
	case snap.JobsOK != 1 || snap.JobsFailed != 0 || snap.JobsCancelled != 0:
		t.Errorf("ok/failed/cancelled = %d/%d/%d, want 1/0/0", snap.JobsOK, snap.JobsFailed, snap.JobsCancelled)
	case snap.ResumedShards >= uint64(space):
		t.Errorf("resumed shards = %d of %d, want mid-campaign", snap.ResumedShards, space)
	case uint64(lowest) < snap.ResumedShards:
		t.Errorf("survivor re-ran shard %d inside its %d-shard durable prefix", lowest, snap.ResumedShards)
	case snap.Checkpoints == 0 || !snap.StoreEnabled:
		t.Errorf("checkpoints = %d, store enabled = %v: the survivor journaled nothing", snap.Checkpoints, snap.StoreEnabled)
	}
	if err := checkGauges(snap, true); err != nil {
		t.Error(err)
	}
}
