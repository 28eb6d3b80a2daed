// The multi-process fleet benchmark behind `make bench-fleet`
// (DESIGN.md §13, EXPERIMENTS.md): real worker processes are spawned
// from this same binary, a coordinator fans campaigns out to them over
// localhost HTTP, and three numbers land in BENCH_serve.json under the
// "fleet" key — coordinator overhead versus a single node on the same
// sweep, sustained throughput for a burst of 100k+ seed-equivalents,
// and the tenant-quota admission demo.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"uexc/internal/server"
)

// seedEquivCampaign is one campaign seed's cost in engine executions:
// three delivery modes, each run twice (run + determinism replay).
const seedEquivCampaign = 6

type benchFleetConfig struct {
	equivalents int    // burst target in seed-equivalents (<=0: 100000)
	benchOut    string // merge results into this JSON file ("" to skip)
}

// fleetBench is the machine-readable result recorded under "fleet".
type fleetBench struct {
	Workers             int     `json:"workers"`
	ProbeSeeds          int     `json:"probe_seeds"`
	SingleNodeSecs      float64 `json:"single_node_secs"`
	DistributedSecs     float64 `json:"distributed_secs"`
	CoordinatorOverhead float64 `json:"coordinator_overhead"`

	BurstJobs         int     `json:"burst_jobs"`
	BurstSeeds        int     `json:"burst_seeds"`
	SeedEquivalents   int     `json:"seed_equivalents"`
	BurstSecs         float64 `json:"burst_secs"`
	EquivalentsPerSec float64 `json:"equivalents_per_sec"`

	Dispatches   uint64 `json:"fleet_dispatches"`
	Acks         uint64 `json:"fleet_acks"`
	Redispatches uint64 `json:"fleet_redispatches"`

	TenantDemo tenantDemo `json:"tenant_demo"`
}

type tenantDemo struct {
	Admitted int                              `json:"admitted"`
	Rejected int                              `json:"rejected"`
	Snapshot map[string]server.TenantSnapshot `json:"tenants"`
}

func runBenchFleet(ctx context.Context, cfg benchFleetConfig, stdout, stderr io.Writer) error {
	if cfg.equivalents <= 0 {
		cfg.equivalents = 100_000
	}
	res := fleetBench{Workers: 2, ProbeSeeds: 600}

	// Two real worker processes, re-execed from this binary.
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var workerURLs []string
	for i := 0; i < res.Workers; i++ {
		url, stop, err := spawnWorker(ctx, exe, stderr)
		if err != nil {
			return fmt.Errorf("bench-fleet: worker %d: %w", i, err)
		}
		defer stop()
		workerURLs = append(workerURLs, url)
	}
	fmt.Fprintf(stderr, "bench-fleet: %d worker processes up: %s\n", res.Workers, strings.Join(workerURLs, " "))

	// Overhead probe: the same sweep on a plain single node and through
	// the coordinator. The workers are separate processes, so on a
	// loaded box the distributed run also buys real parallelism; the
	// ratio is the honest end-to-end cost of dispatch + merge.
	single, err := server.Start(server.Config{Workers: 4, QueueDepth: 8, MaxJobTimeout: 20 * time.Minute})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := runCampaignJob(ctx, single.URL, res.ProbeSeeds); err != nil {
		single.Stop()
		return fmt.Errorf("bench-fleet: single-node probe: %w", err)
	}
	res.SingleNodeSecs = time.Since(t0).Seconds()
	single.Stop()

	coord, err := server.Start(server.Config{
		Workers: 2, QueueDepth: 8, MaxJobTimeout: 20 * time.Minute,
		WorkerNodes: workerURLs,
	})
	if err != nil {
		return err
	}
	defer coord.Stop()
	t0 = time.Now()
	if err := runCampaignJob(ctx, coord.URL, res.ProbeSeeds); err != nil {
		return fmt.Errorf("bench-fleet: distributed probe: %w", err)
	}
	res.DistributedSecs = time.Since(t0).Seconds()
	res.CoordinatorOverhead = res.DistributedSecs / res.SingleNodeSecs
	fmt.Fprintf(stderr, "bench-fleet: probe %d seeds: single %.2fs, distributed %.2fs (overhead x%.2f)\n",
		res.ProbeSeeds, res.SingleNodeSecs, res.DistributedSecs, res.CoordinatorOverhead)

	// Burst: enough campaign jobs through the coordinator to clear the
	// seed-equivalent target, two in flight at a time. Jobs used to stay
	// inside the historically clean 0..799 range; now that verdicts are
	// typed (expected failure shapes land in Classified, not Failures,
	// and the soak gates seeds 0-10k as clean-or-classified) a job's ok
	// bit tolerates classified seeds, so each burst job can sweep the
	// triaged range and every one must still come back ok.
	const seedsPerJob = 2500
	res.BurstJobs = (cfg.equivalents + seedsPerJob*seedEquivCampaign - 1) / (seedsPerJob * seedEquivCampaign)
	res.BurstSeeds = res.BurstJobs * seedsPerJob
	res.SeedEquivalents = res.BurstSeeds * seedEquivCampaign
	fmt.Fprintf(stderr, "bench-fleet: burst: %d jobs x %d seeds = %d seed-equivalents\n",
		res.BurstJobs, seedsPerJob, res.SeedEquivalents)
	t0 = time.Now()
	jobs := make(chan int)
	errs := make(chan error, res.Workers)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				if err := runCampaignJob(ctx, coord.URL, seedsPerJob); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	for i := 0; i < res.BurstJobs; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("bench-fleet: burst: %w", err)
	default:
	}
	res.BurstSecs = time.Since(t0).Seconds()
	res.EquivalentsPerSec = float64(res.SeedEquivalents) / res.BurstSecs
	s, err := server.Metrics(coord.URL)
	if err != nil {
		return err
	}
	res.Dispatches, res.Acks, res.Redispatches = s.FleetDispatches, s.FleetAcks, s.FleetRedispatches
	fmt.Fprintf(stderr, "bench-fleet: burst done in %.1fs — %.0f seed-equivalents/s (%d dispatches, %d acks)\n",
		res.BurstSecs, res.EquivalentsPerSec, res.Dispatches, res.Acks)

	// Tenant-quota demo: a stingy bucket admits one sweep, rejects the
	// next two with Retry-After, and /metrics carries the per-tenant
	// accounting that lands in the bench record.
	demo, err := server.Start(server.Config{
		Workers: 2, QueueDepth: 8,
		Tenants: server.TenantLimits{SeedsPerSec: 1, SeedBurst: 40},
	})
	if err != nil {
		return err
	}
	defer demo.Stop()
	for i := 0; i < 3; i++ {
		status, err := runCampaign(ctx, demo.URL, "bench", 30)
		if err != nil {
			return fmt.Errorf("bench-fleet: tenant demo: %w", err)
		}
		switch status {
		case http.StatusOK:
			res.TenantDemo.Admitted++
		case http.StatusTooManyRequests:
			res.TenantDemo.Rejected++
		default:
			return fmt.Errorf("bench-fleet: tenant demo: unexpected status %d", status)
		}
	}
	if s, err = server.Metrics(demo.URL); err != nil {
		return fmt.Errorf("bench-fleet: %w", err)
	}
	res.TenantDemo.Snapshot = s.Tenants
	if s.RejectedTenant == 0 {
		return fmt.Errorf("bench-fleet: tenant demo produced no quota rejections")
	}
	fmt.Fprintf(stderr, "bench-fleet: tenant demo: %d admitted, %d rejected by quota\n",
		res.TenantDemo.Admitted, res.TenantDemo.Rejected)

	blob, _ := json.MarshalIndent(res, "", "  ")
	fmt.Fprintf(stdout, "%s\n", blob)
	return mergeBench(cfg.benchOut, "fleet", res, stderr)
}

// spawnWorker launches one worker process on an ephemeral port and
// parses the listen address from its stderr banner.
func spawnWorker(ctx context.Context, exe string, stderr io.Writer) (url string, stop func(), err error) {
	cmd := exec.CommandContext(ctx, exe, "-addr", "127.0.0.1:0", "-workers", "4", "-job-timeout", "20m")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	stop = func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}

	// First banner line: "uexc-serve: listening on ADDR (workers N, queue M)".
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if f := strings.Fields(line); len(f) >= 4 && strings.HasPrefix(line, "uexc-serve: listening on ") {
				select {
				case addrCh <- f[3]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, stop, nil
	case <-time.After(30 * time.Second):
		stop()
		return "", nil, fmt.Errorf("worker never reported its listen address")
	case <-ctx.Done():
		stop()
		return "", nil, ctx.Err()
	}
}

// runCampaignJob posts one campaign and consumes it to the verified
// trailer, failing on anything short of a clean ok.
func runCampaignJob(ctx context.Context, base string, seeds int) error {
	status, err := runCampaign(ctx, base, "", seeds)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("campaign status %d", status)
	}
	return err
}

// runCampaign posts one campaign job under an optional tenant and, on
// 200, streams it to completion.
func runCampaign(ctx context.Context, base, tenant string, seeds int) (int, error) {
	resp, err := server.PostJob(ctx, base, tenant, server.Request{Type: server.TypeCampaign, Seeds: seeds, Parallel: 4})
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	_, ok, complete, errText := server.StreamResult(resp.Body)
	if !complete || !ok {
		return resp.StatusCode, fmt.Errorf("stream incomplete or failed: %s", errText)
	}
	return resp.StatusCode, nil
}

// mergeBench sets one key in the bench JSON file, preserving whatever
// other keys (the serving self-test's flat report) are already there.
func mergeBench(path, key string, value any, stderr io.Writer) error {
	if path == "" {
		return nil
	}
	m := map[string]any{}
	if old, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(old, &m)
	}
	m[key] = value
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench-out: %w", err)
	}
	fmt.Fprintf(stderr, "wrote %s (key %q)\n", path, key)
	return nil
}
