// Command uexc-serve exposes the uexc engines — fault-injection
// campaigns, the cross-mode differential oracle, figure sweeps, and
// single program runs — as a long-lived HTTP job service. It only
// serves; the serving gauntlets are the internal/server tests.
//
// Modes:
//
//	uexc-serve                       serve until SIGTERM/Ctrl-C, then drain
//	uexc-serve -store-dir d -resume  serve with a durable job journal, resuming
//	                                 jobs that survived the last crash
//
// See README.md "Serving" and DESIGN.md §11–13.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"uexc/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	forceExitOnSecondSignal(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "uexc-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("uexc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8612", "listen address")
		workers    = fs.Int("workers", 0, "jobs executing concurrently (0: 4)")
		queue      = fs.Int("queue", 0, "admission queue depth beyond the workers (0: 16)")
		jobTimeout = fs.Duration("job-timeout", 0, "per-job deadline cap (0: 120s)")
		maxSeeds   = fs.Int("max-seeds", 0, "per-job campaign/difftest seed cap (0: 5000)")
		storeDir   = fs.String("store-dir", "", "durable job journal directory (empty: in-memory only)")
		resume     = fs.Bool("resume", false, "re-admit journaled jobs that never finished (needs -store-dir)")

		tenantInflight = fs.Int("tenant-inflight", 0, "per-tenant (X-Tenant) max in-flight jobs (0: unlimited)")
		tenantQueued   = fs.Int("tenant-queued", 0, "per-tenant max queued jobs (0: unlimited)")
		tenantRate     = fs.Float64("tenant-seeds-per-sec", 0, "per-tenant admission rate in seed units/s (0: unlimited)")
		tenantBurst    = fs.Float64("tenant-burst", 0, "per-tenant token-bucket burst in seed units (0: 4s of refill)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume requires -store-dir")
	}

	tenants := server.TenantLimits{
		MaxInFlight: *tenantInflight, MaxQueued: *tenantQueued,
		SeedsPerSec: *tenantRate, SeedBurst: *tenantBurst,
	}

	return server.Run(ctx, server.Config{
		Addr: *addr, Workers: *workers, QueueDepth: *queue,
		MaxJobTimeout: *jobTimeout, MaxSeeds: *maxSeeds,
		StoreDir: *storeDir, Resume: *resume,
		Tenants: tenants,
	}, stderr, nil)
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
