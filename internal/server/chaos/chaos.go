// Package chaos is the service-level crash harness for uexc-serve
// (DESIGN.md §12, `make chaos-smoke`): it runs a real campaign job
// through a gauntlet of seeded, deterministic faults — injected worker
// panics, shard stalls, slow fsyncs, mid-stream client disconnects,
// and repeated in-process kills that abandon the journal mid-batch
// exactly as SIGKILL would — and asserts the two properties that make
// the fabric crash-tolerant:
//
//  1. byte-identity: after every kill/restart cycle, the finally
//     completed job's stream reconstructs output byte-identical to a
//     run that was never disturbed;
//  2. exact accounting: /metrics on the final incarnation reports
//     precisely the restarts, replayed jobs, resumed shards, and job
//     verdicts the harness itself observed.
//
// Poison-shard quarantine, with and without a journal, is pinned by
// the server package's TestPoisonShardQuarantine.
//
// Every fault decision is a pure function of (plan seed, job, shard,
// attempt), so a failing run reproduces with the same -chaos-seed.
package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"uexc/internal/harness"
	"uexc/internal/server"
)

// Config sizes the chaos run.
type Config struct {
	// Seeds is the campaign size under test (<=0: 30).
	Seeds int
	// Kills is the number of in-process kill/restart cycles injected
	// mid-campaign (<=0: 3).
	Kills int
	// Seed selects the deterministic fault plan (panics, stalls, slow
	// fsyncs). The same seed reproduces the same faults.
	Seed int64
	// Workers is the server's worker-pool size (<=0: 2).
	Workers int
	// Dir is the journal directory shared across incarnations ("": a
	// temp directory, removed afterwards).
	Dir string
	// Out receives the harness transcript (nil: discard).
	Out io.Writer
}

// plan derives every fault decision from the seed, deterministically.
type plan struct{ seed int64 }

// hash mixes the plan seed with a shard attempt's identity.
func (p plan) hash(job uint64, shard, attempt int) uint64 {
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
func (p plan) fault(job uint64, shard, attempt int) server.ShardFault {
	if attempt != 0 {
		return server.ShardFault{}
	}
	h := p.hash(job, shard, attempt)
	if h%8 == 0 {
		return server.ShardFault{Panic: true}
	}
	return server.ShardFault{Stall: time.Duration(2+h%7) * time.Millisecond}
}

// slowSync delays roughly every fifth journal fsync — the slow-disk
// fault — without any mutable state, keyed on wall-clock microseconds
// being irrelevant: the delay is tiny and the decision deterministic
// enough (it fires on a fixed fraction of syncs via a counter).
type slowSync struct {
	plan  plan
	calls int
}

func (s *slowSync) delay() {
	s.calls++
	if s.plan.hash(0, s.calls, -1)%5 == 0 {
		time.Sleep(200 * time.Microsecond)
	}
}

// Run executes the full chaos scenario and returns the first broken
// invariant as an error (nil: every assertion held).
func Run(ctx context.Context, cfg Config) error {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 30
	}
	if cfg.Kills <= 0 {
		cfg.Kills = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "uexc-chaos-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	p := plan{seed: cfg.Seed}

	// The undisturbed golden output the survivor must reproduce.
	golden, err := server.Golden(ctx, server.TypeCampaign, cfg.Seeds)
	if err != nil {
		return fmt.Errorf("chaos: golden campaign: %w", err)
	}
	totalShards := harness.CampaignShards(cfg.Seeds)
	fmt.Fprintf(out, "chaos: plan seed %d, %d seeds (%d shards), %d kills, journal %s\n",
		cfg.Seed, cfg.Seeds, totalShards, cfg.Kills, dir)

	// Doomed incarnation N is braked at shard index budget*(N+1), so
	// each life advances the frontier by about one budget; the last
	// braked limit must leave shards for the survivor, or the campaign
	// would finish before its final kill.
	budget := totalShards/(cfg.Kills+1) + 1
	if cfg.Kills*budget >= totalShards {
		return fmt.Errorf("chaos: %d seeds is too small for %d kills", cfg.Seeds, cfg.Kills)
	}

	if err := crashCycles(ctx, cfg, p, dir, budget, golden, out); err != nil {
		return err
	}
	fmt.Fprintf(out, "chaos: ok — %d kills survived, stream byte-identical, metrics exact\n", cfg.Kills)
	return nil
}

// brake caps an incarnation's progress at a fixed shard-index limit:
// shards below the limit run normally, shards at or above it stall
// until the kill lands. Because the limit is on the *index* — not on
// how many shards happened to start — every allowed shard sits ahead
// of the braked tail in its worker's contiguous span and is guaranteed
// to complete no matter how the work-stealing schedule interleaves, so
// the merge frontier deterministically reaches the limit and the
// campaign can never finish before its scheduled crash. The long stall
// stays under the shard deadline and aborts on job-context
// cancellation, so braked shards die with the incarnation instead of
// timing out.
type brake struct {
	plan    plan
	limit   int
	once    sync.Once
	engaged chan struct{}
}

func newBrake(p plan, limit int) *brake {
	return &brake{plan: p, limit: limit, engaged: make(chan struct{})}
}

func (b *brake) fault(job uint64, shard, attempt int) server.ShardFault {
	if shard >= b.limit {
		b.once.Do(func() { close(b.engaged) })
		return server.ShardFault{Stall: 30 * time.Second}
	}
	return b.plan.fault(job, shard, attempt)
}

// crashCycles runs the kill/restart gauntlet against one campaign job.
func crashCycles(ctx context.Context, cfg Config, p plan, dir string, budget int, golden string, out io.Writer) error {
	serverCfg := func(resume bool, fault func(uint64, int, int) server.ShardFault) server.Config {
		return server.Config{
			Workers: cfg.Workers, QueueDepth: 4,
			StoreDir: dir, Resume: resume,
			CheckpointEvery: 2, StoreSyncEvery: 4,
			StoreSyncDelay: (&slowSync{plan: p}).delay,
			ShardAttempts:  3, ShardBackoff: time.Millisecond,
			ShardFault: fault,
		}
	}

	var jobID uint64
	for cycle := 0; cycle <= cfg.Kills; cycle++ {
		// Doomed incarnation N may only advance to shard budget*(N+1);
		// the survivor runs the plan faults only and is allowed to finish.
		var br *brake
		fault := p.fault
		if cycle < cfg.Kills {
			br = newBrake(p, budget*(cycle+1))
			fault = br.fault
		}
		inc, err := server.Start(serverCfg(cycle > 0, fault))
		if err != nil {
			return fmt.Errorf("chaos: incarnation %d: %w", cycle, err)
		}

		if cycle == 0 {
			// Post the campaign, read just past the accepted event, and
			// hang up — the mid-stream disconnect fault. The durable job
			// must keep running without its client.
			id, err := postAndAbandon(ctx, inc.URL, server.Request{
				Type: server.TypeCampaign, Seeds: cfg.Seeds, Parallel: 3, Verbose: true,
			})
			if err != nil {
				inc.Kill()
				return fmt.Errorf("chaos: admit: %w", err)
			}
			jobID = id
		} else {
			// The restarted incarnation must have replayed exactly our job.
			if err := checkReplay(inc.URL, cycle); err != nil {
				inc.Kill()
				return fmt.Errorf("chaos: incarnation %d replay: %w", cycle, err)
			}
			// Re-attach mid-run and hang up again — replay + disconnect.
			if cycle < cfg.Kills {
				if err := attachAndAbandon(inc.URL, jobID, 3); err != nil {
					inc.Kill()
					return fmt.Errorf("chaos: incarnation %d re-attach: %w", cycle, err)
				}
			}
		}

		if cycle < cfg.Kills {
			// Wait for the brake to engage — a shard beyond this life's
			// limit has been reached and stalled — then for a checkpoint
			// to land and the journal to quiesce, so the kill lands at a
			// point whose durable prefix is the checkpoints this life
			// earned.
			select {
			case <-br.engaged:
			case <-ctx.Done():
				inc.Kill()
				return ctx.Err()
			case <-time.After(60 * time.Second):
				inc.Kill()
				return fmt.Errorf("chaos: incarnation %d: brake never engaged", cycle)
			}
			at, err := waitJournalQuiesce(inc.URL, 30*time.Second)
			if err != nil {
				inc.Kill()
				return fmt.Errorf("chaos: incarnation %d quiesce: %w", cycle, err)
			}
			inc.Kill()
			fmt.Fprintf(out, "chaos: kill #%d after %d journaled records this life\n", cycle+1, at)
			continue
		}

		// Final incarnation: attach for real and read to the trailer.
		streamed, ok, complete, errText := attachFully(inc.URL, jobID)
		if !complete || !ok {
			inc.Stop()
			return fmt.Errorf("chaos: survivor stream incomplete (ok=%v complete=%v): %s", ok, complete, errText)
		}
		if streamed != golden {
			inc.Stop()
			return fmt.Errorf("chaos: survivor stream differs from the undisturbed run\n--- survivor ---\n%s--- golden ---\n%s",
				streamed, golden)
		}
		fmt.Fprintf(out, "chaos: survivor stream byte-identical to the undisturbed run (%d bytes)\n", len(streamed))

		// Exact accounting on the survivor.
		if err := checkSurvivor(inc.URL, cfg); err != nil {
			inc.Stop()
			return fmt.Errorf("chaos: survivor accounting: %w", err)
		}
		fmt.Fprintf(out, "chaos: survivor metrics exact (restarts %d, 1 job replayed)\n", cfg.Kills)
		inc.Stop()
	}
	return nil
}

// checkReplay holds a restarted incarnation to exactly one replayed
// job with a nonempty durable prefix.
func checkReplay(base string, cycle int) error {
	s, err := server.Metrics(base)
	switch {
	case err != nil:
		return err
	case s.Restarts != uint64(cycle):
		return fmt.Errorf("restarts = %d, want %d", s.Restarts, cycle)
	case s.ReplayedJobs != 1:
		return fmt.Errorf("replayed jobs = %d, want 1", s.ReplayedJobs)
	case s.ResumedShards == 0:
		return fmt.Errorf("no resumed shards after kill %d; durable prefix lost", cycle)
	}
	return nil
}

// checkSurvivor holds the final incarnation's /metrics to exactly what
// the harness observed across the whole gauntlet.
func checkSurvivor(base string, cfg Config) error {
	s, err := server.Metrics(base)
	switch {
	case err != nil:
		return err
	case s.Restarts != uint64(cfg.Kills):
		return fmt.Errorf("restarts = %d, want %d", s.Restarts, cfg.Kills)
	case s.ReplayedJobs != 1:
		return fmt.Errorf("replayed jobs = %d, want 1", s.ReplayedJobs)
	case s.JobsOK != 1 || s.JobsFailed != 0 || s.JobsCancelled != 0:
		return fmt.Errorf("ok/failed/cancelled = %d/%d/%d, want 1/0/0", s.JobsOK, s.JobsFailed, s.JobsCancelled)
	case s.ResumedShards == 0 || s.ResumedShards >= uint64(harness.CampaignShards(cfg.Seeds)):
		return fmt.Errorf("resumed shards = %d, want mid-campaign", s.ResumedShards)
	case s.Checkpoints == 0:
		return fmt.Errorf("no checkpoints journaled by the survivor")
	case !s.StoreEnabled:
		return fmt.Errorf("store not enabled on the survivor")
	case s.QueueDepth != 0 || s.InFlight != 0:
		return fmt.Errorf("queue/in-flight = %d/%d after completion", s.QueueDepth, s.InFlight)
	}
	return nil
}

// postAndAbandon admits a job, reads just the accepted event for the
// ID, and drops the connection — the first mid-stream disconnect.
func postAndAbandon(ctx context.Context, base string, req server.Request) (uint64, error) {
	resp, err := server.PostJob(ctx, base, "", req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		return 0, fmt.Errorf("no accepted event")
	}
	var ev server.Event
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Type != "accepted" {
		return 0, fmt.Errorf("first event %q is not accepted (%v)", sc.Text(), err)
	}
	return ev.ID, nil
}

// attachAndAbandon re-attaches to a job's stream, reads a few events
// (the replayed prefix), and hangs up mid-stream.
func attachAndAbandon(base string, id uint64, events int) error {
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < events && sc.Scan(); i++ {
	}
	return nil
}

// attachFully re-attaches and consumes the stream to its trailer.
func attachFully(base string, id uint64) (output string, ok, complete bool, errText string) {
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		return "", false, false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", false, false, fmt.Sprintf("status %d", resp.StatusCode)
	}
	return server.StreamResult(resp.Body)
}

// waitJournalQuiesce polls /metrics until this incarnation has landed
// at least one checkpoint and the journal append counter then holds
// still for a stretch of consecutive polls, returning the settled
// count — the shards that finished ahead of the brake have all been
// journaled, so the kill cannot erase the life's durable progress.
func waitJournalQuiesce(base string, timeout time.Duration) (uint64, error) {
	var last uint64
	stable := 0
	s, err := server.WaitMetrics(base, timeout, func(s server.Snapshot) bool {
		if s.Checkpoints >= 1 && s.JournalAppends == last {
			stable++
		} else {
			last, stable = s.JournalAppends, 0
		}
		return stable >= 20
	})
	if err != nil {
		return 0, fmt.Errorf("journal never quiesced within %v: %w", timeout, err)
	}
	return s.JournalAppends, nil
}
