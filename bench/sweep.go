package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"uexc/internal/core"
	"uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/parallel"
	"uexc/internal/verdict"
)

// seedBase spaces the workloads' seed ranges: a run with -seed S draws
// campaign and difftest seeds from [seedBase·S, seedBase·(S+1)), far
// more than one run consumes.
const seedBase = 100_000

// newWarmPool returns a machine pool serving checkouts from a warm
// post-boot snapshot, as the serving layer configures its own.
func newWarmPool() (*core.MachinePool, error) {
	pool := &core.MachinePool{}
	if err := pool.EnableWarmBoot(); err != nil {
		return nil, fmt.Errorf("warm boot: %w", err)
	}
	return pool, nil
}

// campaignModes is harness.RunShard's per-seed mode count: shard
// 3·seed+m runs seed under mode m, twice.
const campaignModes = 3

// sweep describes one batch workload: how many shards a seed has and
// how to run and check one shard. run returns the faults the shard
// injected (campaign) and an error for a failed check.
type sweep struct {
	layer         string
	batch         int // seeds per batch
	shardsPerSeed int
	run           func(pool *core.MachinePool, seed, shard int) (events uint64, err error)
}

func runCampaign(cfg config, res *result, tr *tracer, host *hostClock) error {
	return runSweep(cfg, res, tr, host, campaignSweep(cfg))
}

func runDifftest(cfg config, res *result, tr *tracer, host *hostClock) error {
	return runSweep(cfg, res, tr, host, difftestSweep(cfg))
}

func campaignSweep(cfg config) sweep {
	return sweep{
		layer: "harness", batch: cfg.campaignBatch, shardsPerSeed: campaignModes,
		run: func(pool *core.MachinePool, seed, shard int) (uint64, error) {
			return checkCampaignShard(seed, harness.RunShard(pool, seed+1, shard))
		},
	}
}

func difftestSweep(cfg config) sweep {
	return sweep{
		layer: "difftest", batch: cfg.difftestBatch, shardsPerSeed: 1,
		run: func(pool *core.MachinePool, seed, _ int) (uint64, error) {
			if t := difftest.RunShard(pool, seed); t.Verdict == verdict.EngineBug {
				return 0, fmt.Errorf("seed %d: engine bug: %v", seed, t.Divergences)
			}
			return 0, nil
		},
	}
}

// warmup opens a warm pool and runs seed 0's shards once, outside any
// measurement: that assembles the campaign's fixed programs, or one
// difftest seed's sources. The seed is fixed, so set-up does the same
// work on every run.
func warmup(w sweep) (*core.MachinePool, error) {
	pool, err := newWarmPool()
	if err != nil {
		return nil, err
	}
	for s := 0; s < w.shardsPerSeed; s++ {
		w.run(pool, 0, s)
	}
	return pool, nil
}

// checkCampaignShard holds a campaign shard to its contract: the replay
// reproduces the first run exactly and neither run is an engine bug.
// Known-divergent runs are classified, not failed.
func checkCampaignShard(seed int, t harness.CampaignShard) (uint64, error) {
	var events uint64
	for _, n := range t.First.Exercised {
		events += n
	}
	switch {
	case t.First.Fingerprint != t.Again.Fingerprint:
		return events, fmt.Errorf("seed %d: replay fingerprint differs", seed)
	case t.First.Verdict == verdict.EngineBug || t.Again.Verdict == verdict.EngineBug:
		return events, fmt.Errorf("seed %d: engine bug: %v", seed, t.First.VerdictDetail)
	case len(t.First.Failures)+len(t.Again.Failures) > 0:
		return events, fmt.Errorf("seed %d: %v", seed, append(t.First.Failures, t.Again.Failures...))
	}
	return events, nil
}

// runSweep runs batches of consecutive seeds through parallel.MapCtx on
// the fixed worker count, on one warm pool, until the measured time is
// up. Every batch is a fresh seed range. Throughput is the median batch
// rate; latency the median shard time. In a traced run, odd batches are
// traced (a span per batch and per shard, and the pool's Harvest hook
// installed) and even ones are not.
func runSweep(cfg config, res *result, tr *tracer, host *hostClock, w sweep) error {
	pool, err := warmup(w)
	if err != nil {
		return err
	}
	ctx := context.Background()
	next := int(cfg.seed) * seedBase

	var (
		plainRate, tracedRate, shardMS []float64
		events                         uint64
		insts                          atomic.Uint64 // harvested in traced batches
		tracedShards                   int
	)
	allocs := totalAlloc()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for b := 0; b < cfg.minRounds || time.Now().Before(deadline); b++ {
		host.tick()
		traced := tr != nil && b%2 == 1
		base, n := next, w.batch*w.shardsPerSeed
		next += w.batch
		if traced {
			pool.Harvest = func(m *core.Machine) { insts.Add(m.CPU().Insts) }
		}
		type out struct {
			events     uint64
			err        error
			begin, end time.Time
		}
		start := time.Now()
		outs, err := parallel.MapCtx(ctx, workers, n, func(i int) out {
			begin := time.Now()
			events, err := w.run(pool, base+i/w.shardsPerSeed, w.shardsPerSeed*base+i)
			return out{events, err, begin, time.Now()}
		})
		wall := time.Since(start)
		pool.Harvest = nil
		if err != nil {
			return err
		}
		rate := float64(w.batch) / wall.Seconds()
		var pid int
		if traced {
			tracedRate = append(tracedRate, rate)
			pid = tr.add(0, "parallel", "batch", fmt.Sprintf("batch-%d", b), start, start.Add(wall))
			tracedShards += n
		} else {
			plainRate = append(plainRate, rate)
		}
		failed := map[int]bool{}
		for i, o := range outs {
			seed := base + i/w.shardsPerSeed
			if traced {
				tr.add(pid, w.layer, "shard", fmt.Sprint(seed), o.begin, o.end)
			} else {
				shardMS = append(shardMS, ms(o.end.Sub(o.begin)))
			}
			events += o.events
			if o.err != nil && !failed[seed] {
				failed[seed] = true
				res.fail("%v", o.err)
			}
		}
		res.Attempted += w.batch
		res.Failed += len(failed)
		if b == cfg.minRounds-1 {
			res.noteLiveHeap()
		}
	}

	res.noteAllocs(allocs, res.Attempted)
	res.set("ops_per_s", median(plainRate))
	res.set("op_p50_ms", median(shardMS))
	if tr != nil {
		res.set("trace.overhead_frac", ratio(median(plainRate), median(tracedRate))-1)
		spans := tr.durations(w.layer, "shard")
		opStats(res, spans)
		res.set("parallel.busy_frac", ratio(sum(spans), workers*sum(tr.durations("parallel", "batch"))))
		res.set("kernel.insts_per_op", ratio(float64(insts.Load()), float64(tracedShards)))
		res.set("faultinject.events_per_seed", ratio(float64(events), float64(res.Attempted)))
	}
	return nil
}
