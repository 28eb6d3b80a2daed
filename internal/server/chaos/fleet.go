package chaos

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"uexc/internal/harness"
	"uexc/internal/server"
)

// FleetConfig sizes the distributed-coordinator chaos scenario.
type FleetConfig struct {
	// Seeds is the campaign size under test (<=0: 30).
	Seeds int
	// Seed selects the deterministic worker fault plan.
	Seed int64
	// Dir is the coordinator's journal directory shared across its
	// incarnations ("": a temp directory, removed afterwards).
	Dir string
	// Out receives the harness transcript (nil: discard).
	Out io.Writer
}

// FleetRun is the §13 gauntlet (`make fleet-smoke`): a coordinator
// with a durable journal fans one campaign out to two in-process
// worker nodes, and the harness then breaks everything breakable in
// sequence —
//
//  1. one worker is killed mid-shard-range, so its unfinished range
//     must re-dispatch to the survivor (duplicate shard deliveries
//     reach the merge frontier and are discarded);
//  2. the coordinator itself is killed mid-fan-out, after ranges have
//     acked and merge checkpoints are durable, and a garbage
//     journal.ndjson.tmp is planted in its store directory — the torn
//     leftover of a compaction interrupted at the worst moment;
//  3. a replacement coordinator reopens the journal (clobbering the
//     torn tmp), resumes the job from its merge frontier, dispatches
//     only the remainder to the surviving and a replacement worker,
//     and finishes.
//
// The final re-attached stream must be byte-identical to an
// undisturbed serial run, and the survivor's metrics must account for
// the whole ordeal exactly.
func FleetRun(ctx context.Context, cfg FleetConfig) error {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 30
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "uexc-fleet-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	p := plan{seed: cfg.Seed}
	space := harness.CampaignShards(cfg.Seeds)

	// The undisturbed golden output the distributed run must reproduce.
	golden, err := server.Golden(ctx, server.TypeCampaign, cfg.Seeds)
	if err != nil {
		return fmt.Errorf("fleet: golden campaign: %w", err)
	}
	fmt.Fprintf(out, "fleet: %d seeds (%d shards), 2 workers, journal %s\n", cfg.Seeds, space, dir)

	// The gate brakes every worker at one global shard index: shards
	// below it run (with the plan's transient panics and stalls),
	// shards at or past it stall until the gate opens. Range jobs carry
	// true shard indices, so the brake pins the coordinator's merge
	// frontier below the gate — the kills below cannot race the
	// campaign finishing early.
	var gate atomic.Int64
	gate.Store(int64(space / 2))
	workerFault := func(job uint64, shard, attempt int) server.ShardFault {
		if int64(shard) >= gate.Load() {
			return server.ShardFault{Stall: 30 * time.Second}
		}
		return p.fault(job, shard, attempt)
	}
	workerCfg := server.Config{
		Workers: 2, QueueDepth: 8,
		ShardAttempts: 3, ShardBackoff: time.Millisecond,
		ShardFault: workerFault,
	}
	w0, err := server.Start(workerCfg)
	if err != nil {
		return fmt.Errorf("fleet: worker 0: %w", err)
	}
	defer w0.Stop()
	w1, err := server.Start(workerCfg)
	if err != nil {
		return fmt.Errorf("fleet: worker 1: %w", err)
	}
	defer w1.Stop()

	coordCfg := func(resume bool, nodes []string) server.Config {
		return server.Config{
			Workers: 1, QueueDepth: 4,
			StoreDir: dir, Resume: resume,
			CheckpointEvery: 2, StoreSyncEvery: 2,
			WorkerNodes: nodes, DispatchShards: 6,
			WorkerQuarantine: 100 * time.Millisecond,
			ShardBackoff:     time.Millisecond,
		}
	}
	coordA, err := server.Start(coordCfg(false, []string{w0.URL, w1.URL}))
	if err != nil {
		return fmt.Errorf("fleet: coordinator A: %w", err)
	}

	// Admit the campaign and hang up mid-stream: the durable
	// coordinator job must keep dispatching without its client.
	jobID, err := postAndAbandon(ctx, coordA.URL, server.Request{
		Type: server.TypeCampaign, Seeds: cfg.Seeds, Parallel: 2, Verbose: true,
	})
	if err != nil {
		coordA.Kill()
		return fmt.Errorf("fleet: admit: %w", err)
	}

	// Fault 1: kill worker 0 once it holds a dispatched range, and
	// demand the coordinator move the stranded range to the survivor.
	if err := waitFleet(coordA.URL, w0.URL, 30*time.Second); err != nil {
		coordA.Kill()
		return fmt.Errorf("fleet: pre-kill progress: %w", err)
	}
	w0.Kill()
	fmt.Fprintf(out, "fleet: worker 0 killed mid-range\n")
	if _, err := server.WaitMetrics(coordA.URL, 30*time.Second, func(s server.Snapshot) bool {
		return s.FleetRedispatches >= 1
	}); err != nil {
		coordA.Kill()
		return fmt.Errorf("fleet: stranded range never re-dispatched: %w", err)
	}
	fmt.Fprintf(out, "fleet: stranded range re-dispatched to the survivor\n")

	// Fault 2: kill the coordinator once this life's merge progress is
	// checkpointed, then plant a torn compaction tmp next to the
	// journal — reopening must clobber it, not replay it.
	if _, err := server.WaitMetrics(coordA.URL, 30*time.Second, func(s server.Snapshot) bool {
		return s.Checkpoints >= 1 && s.FleetAcks >= 1
	}); err != nil {
		coordA.Kill()
		return fmt.Errorf("fleet: durable progress before coordinator kill: %w", err)
	}
	if _, err := waitJournalQuiesce(coordA.URL, 30*time.Second); err != nil {
		coordA.Kill()
		return fmt.Errorf("fleet: quiesce before coordinator kill: %w", err)
	}
	coordA.Kill()
	tornTmp := filepath.Join(dir, "journal.ndjson.tmp")
	if err := os.WriteFile(tornTmp, []byte("{\"t\":\"restart\",\"job\":9\ngarbage"), 0o644); err != nil {
		return fmt.Errorf("fleet: plant torn tmp: %w", err)
	}
	fmt.Fprintf(out, "fleet: coordinator killed mid-fan-out; torn compaction tmp planted\n")

	// Recovery: open the gate, bring up a replacement worker, and let
	// coordinator B resume from the journal with the surviving fleet.
	gate.Store(int64(space))
	w2, err := server.Start(workerCfg)
	if err != nil {
		return fmt.Errorf("fleet: replacement worker: %w", err)
	}
	defer w2.Stop()
	coordB, err := server.Start(coordCfg(true, []string{w1.URL, w2.URL}))
	if err != nil {
		return fmt.Errorf("fleet: coordinator B: %w", err)
	}
	defer coordB.Stop()
	if _, err := os.Stat(tornTmp); !os.IsNotExist(err) {
		return fmt.Errorf("fleet: torn compaction tmp survived reopen (stat err: %v)", err)
	}

	streamed, ok, complete, errText := attachFully(coordB.URL, jobID)
	if !complete || !ok {
		return fmt.Errorf("fleet: resumed stream incomplete (ok=%v complete=%v): %s", ok, complete, errText)
	}
	if streamed != golden {
		return fmt.Errorf("fleet: distributed stream differs from the undisturbed run\n--- distributed ---\n%s--- golden ---\n%s",
			streamed, golden)
	}
	fmt.Fprintf(out, "fleet: resumed distributed stream byte-identical to the serial run (%d bytes)\n", len(streamed))

	// Exact accounting on the surviving coordinator.
	if err := checkFleetSurvivor(coordB.URL, space); err != nil {
		return fmt.Errorf("fleet: survivor accounting: %w", err)
	}
	fmt.Fprintf(out, "fleet: ok — worker kill, coordinator kill, torn tmp all survived; stream byte-identical, metrics exact\n")
	return nil
}

// checkFleetSurvivor holds the replacement coordinator's /metrics to
// the whole ordeal: one restart, one replayed job resumed mid-campaign,
// every dispatch acked, and every gauge back at zero.
func checkFleetSurvivor(base string, space int) error {
	s, err := server.Metrics(base)
	switch {
	case err != nil:
		return err
	case s.Restarts != 1 || s.ReplayedJobs != 1:
		return fmt.Errorf("restarts/replayed = %d/%d, want 1/1", s.Restarts, s.ReplayedJobs)
	case s.ResumedShards == 0 || s.ResumedShards >= uint64(space):
		return fmt.Errorf("resumed shards = %d, want mid-campaign (of %d)", s.ResumedShards, space)
	case s.JobsOK != 1 || s.JobsFailed != 0 || s.JobsCancelled != 0:
		return fmt.Errorf("ok/failed/cancelled = %d/%d/%d, want 1/0/0", s.JobsOK, s.JobsFailed, s.JobsCancelled)
	case !s.FleetEnabled || s.FleetWorkers != 2:
		return fmt.Errorf("fleet enabled/workers = %v/%d, want true/2", s.FleetEnabled, s.FleetWorkers)
	case s.FleetDispatches == 0 || s.FleetDispatches != s.FleetAcks:
		return fmt.Errorf("dispatches/acks = %d/%d, want equal and nonzero on the survivor",
			s.FleetDispatches, s.FleetAcks)
	case s.QueueDepth != 0 || s.InFlight != 0:
		return fmt.Errorf("queue/in-flight = %d/%d after completion", s.QueueDepth, s.InFlight)
	}
	for name, ts := range s.Tenants {
		if ts.Queued != 0 || ts.Running != 0 {
			return fmt.Errorf("tenant %q gauges queued=%d running=%d after completion", name, ts.Queued, ts.Running)
		}
	}
	return nil
}

// waitFleet waits until worker 0 is actually executing a dispatched
// range while the coordinator has acked at least one — the moment a
// worker kill strands real work. Demanding an ack before the kill
// matters: the survivor may be braked for the full stall on its own
// range, so the post-kill progress wait (a checkpoint and an ack) must
// already be satisfied by pre-kill work, not depend on the brake
// expiring.
func waitFleet(coord, worker string, timeout time.Duration) error {
	_, err := server.WaitMetrics(coord, timeout, func(s server.Snapshot) bool {
		if s.FleetDispatches < 2 || s.FleetAcks < 1 {
			return false
		}
		ws, err := server.Metrics(worker)
		return err == nil && ws.InFlight >= 1
	})
	if err != nil {
		return fmt.Errorf("worker never held a live range: %w", err)
	}
	return nil
}
