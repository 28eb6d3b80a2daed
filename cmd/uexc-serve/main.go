// Command uexc-serve exposes the uexc engines — fault-injection
// campaigns, the cross-mode differential oracle, figure sweeps, and
// single program runs — as a long-lived HTTP job service.
//
// Modes:
//
//	uexc-serve                       serve until SIGTERM/Ctrl-C, then drain
//	uexc-serve -store-dir d -resume  serve with a durable job journal, resuming
//	                                 jobs that survived the last crash
//	uexc-serve -coordinator u1,u2    serve as a fleet coordinator: campaign and
//	                                 difftest jobs fan out to these worker nodes
//	uexc-serve -selftest             end-to-end serving smoke (spins its own server)
//	uexc-serve -loadgen -url ...     generate load against a running server
//	uexc-serve -chaos                crash-tolerance gauntlet: repeated mid-campaign
//	                                 kills must leave the final stream byte-identical
//	uexc-serve -fleet-smoke          distributed gauntlet: coordinator + 2 workers,
//	                                 worker kill, coordinator kill, torn journal tmp
//	uexc-serve -bench-fleet          multi-process localhost fleet benchmark
//
// See README.md "Serving" and DESIGN.md §11–13.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"uexc/internal/server"
	"uexc/internal/server/chaos"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	forceExitOnSecondSignal(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "uexc-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("uexc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8612", "listen address (serve mode)")
		workers    = fs.Int("workers", 0, "jobs executing concurrently (0: 4)")
		queue      = fs.Int("queue", 0, "admission queue depth beyond the workers (0: 16)")
		jobTimeout = fs.Duration("job-timeout", 0, "per-job deadline cap (0: 120s)")
		maxSeeds   = fs.Int("max-seeds", 0, "per-job campaign/difftest seed cap (0: 5000)")
		storeDir   = fs.String("store-dir", "", "durable job journal directory (empty: in-memory only)")
		resume     = fs.Bool("resume", false, "re-admit journaled jobs that never finished (needs -store-dir)")

		coordinator    = fs.String("coordinator", "", "comma-separated worker base URLs; serve as a fleet coordinator (DESIGN.md §13)")
		dispatchShards = fs.Int("dispatch-shards", 0, "shards per dispatched range in coordinator mode (0: 12)")

		tenantInflight = fs.Int("tenant-inflight", 0, "per-tenant (X-Tenant) max in-flight jobs (0: unlimited)")
		tenantQueued   = fs.Int("tenant-queued", 0, "per-tenant max queued jobs (0: unlimited)")
		tenantRate     = fs.Float64("tenant-seeds-per-sec", 0, "per-tenant admission rate in seed units/s (0: unlimited)")
		tenantBurst    = fs.Float64("tenant-burst", 0, "per-tenant token-bucket burst in seed units (0: 4s of refill)")

		selftest    = fs.Bool("selftest", false, "run the end-to-end serving smoke against an ephemeral server, then exit")
		loadgen     = fs.Bool("loadgen", false, "generate load against -url, then exit")
		chaosMode   = fs.Bool("chaos", false, "run the crash-tolerance gauntlet on an ephemeral server, then exit")
		chaosSeeds  = fs.Int("chaos-seeds", 0, "campaign size for -chaos (0: 30)")
		chaosKills  = fs.Int("chaos-kills", 0, "kill/restart cycles for -chaos (0: 3)")
		chaosSeed   = fs.Int64("chaos-seed", 0, "fault-plan seed for -chaos (reproduces a failing run)")
		fleetSmoke  = fs.Bool("fleet-smoke", false, "run the distributed-coordinator gauntlet on an ephemeral fleet, then exit")
		fleetSeeds  = fs.Int("fleet-seeds", 0, "campaign size for -fleet-smoke (0: 30)")
		benchFleet  = fs.Bool("bench-fleet", false, "run the multi-process localhost fleet benchmark, then exit")
		fleetEquiv  = fs.Int("fleet-equivalents", 0, "seed-equivalent target for the -bench-fleet burst (0: 100000)")
		url         = fs.String("url", "http://127.0.0.1:8612", "server base URL (loadgen mode)")
		jobs        = fs.Int("jobs", 200, "total jobs (loadgen/selftest)")
		concurrency = fs.Int("concurrency", 32, "client goroutines (loadgen/selftest)")
		benchOut    = fs.String("bench-out", "", "write the load report as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if modes := btoi(*selftest) + btoi(*loadgen) + btoi(*chaosMode) + btoi(*fleetSmoke) + btoi(*benchFleet); modes > 1 {
		return fmt.Errorf("-selftest, -loadgen, -chaos, -fleet-smoke and -bench-fleet are mutually exclusive")
	}
	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume requires -store-dir")
	}

	tenants := server.TenantLimits{
		MaxInFlight: *tenantInflight, MaxQueued: *tenantQueued,
		SeedsPerSec: *tenantRate, SeedBurst: *tenantBurst,
	}
	var nodes []string
	for _, u := range strings.Split(*coordinator, ",") {
		if u = strings.TrimSpace(u); u != "" {
			nodes = append(nodes, u)
		}
	}

	switch {
	case *chaosMode:
		return chaos.Run(ctx, chaos.Config{
			Seeds: *chaosSeeds, Kills: *chaosKills, Seed: *chaosSeed,
			Workers: *workers, Out: stderr,
		})

	case *fleetSmoke:
		return chaos.FleetRun(ctx, chaos.FleetConfig{
			Seeds: *fleetSeeds, Seed: *chaosSeed, Out: stderr,
		})

	case *benchFleet:
		return runBenchFleet(ctx, benchFleetConfig{
			equivalents: *fleetEquiv, benchOut: *benchOut,
		}, stdout, stderr)

	case *selftest:
		rep, err := server.Smoke(ctx, stderr, server.SmokeConfig{
			Jobs: *jobs, Concurrency: *concurrency,
			Workers: *workers, QueueDepth: *queue,
		})
		if rep != nil {
			rep.Render(stdout)
		}
		if err != nil {
			return err
		}
		return writeBench(*benchOut, rep, stderr)

	case *loadgen:
		start := time.Now()
		rep, err := server.RunLoad(ctx, server.LoadConfig{
			BaseURL: *url, Jobs: *jobs, Concurrency: *concurrency, Verbose: true,
		})
		if rep != nil {
			rep.Render(stdout)
			fmt.Fprintf(stderr, "loadgen: wall time %.2fs\n", time.Since(start).Seconds())
		}
		if err != nil {
			return err
		}
		return writeBench(*benchOut, rep, stderr)

	default:
		return server.Run(ctx, server.Config{
			Addr: *addr, Workers: *workers, QueueDepth: *queue,
			MaxJobTimeout: *jobTimeout, MaxSeeds: *maxSeeds,
			StoreDir: *storeDir, Resume: *resume,
			Tenants: tenants, WorkerNodes: nodes, DispatchShards: *dispatchShards,
		}, stderr, nil)
	}
}

// forceExitOnSecondSignal is the double-SIGTERM escape hatch: the
// first signal cancels ctx and begins the graceful drain; restore then
// returns signal handling to the default disposition, so a second
// SIGTERM or Ctrl-C terminates the process immediately instead of
// waiting out a drain that may be pinned by a long campaign.
func forceExitOnSecondSignal(ctx context.Context, restore func()) {
	go func() {
		<-ctx.Done()
		restore()
	}()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeBench persists the machine-readable load report (BENCH_serve.json).
func writeBench(path string, rep *server.LoadReport, stderr io.Writer) error {
	if path == "" || rep == nil {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench-out: %w", err)
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}
