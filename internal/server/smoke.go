package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"uexc/internal/debug"
	"uexc/internal/kernel"
	"uexc/internal/parallel"
)

// SmokeConfig shapes the server the end-to-end smoke runs against.
type SmokeConfig struct {
	Workers, QueueDepth int
}

// The smoke's phase-3 burst: smokeJobs jobs from smokeClients clients.
const smokeJobs, smokeClients = 24, 8

// Smoke is the serving subsystem's end-to-end self-test, run by
// `make serve-smoke` against a race-built binary: it starts a real
// uexc-serve instance through Run on an ephemeral port and proves over
// actual HTTP what only the real engines on the real binary can:
//
//  1. byte-identity — campaign and difftest job streams reconstruct
//     exactly the CLI's output (Golden) for the same seeds, at shard
//     width 1 and 4;
//  2. debug sessions — a watchpoint on the kernel trapframe page hits,
//     the paused state is inspectable, and a re-run is byte-identical;
//  3. load — a mixed-job burst completes with every job admitted and
//     ok, and /metrics totals agree exactly with the client-side
//     counts (every pool checkout a fork or a restore);
//  4. shutdown — cancelling ctx takes Run's SIGTERM path: drain, then
//     a clean exit.
//
// Backpressure, drain, and tenant quotas are pinned by the unit tests
// TestQueueFull429, TestDrainFinishesAdmittedRejectsNew, and
// TestTenantInFlightQuota.
func Smoke(ctx context.Context, out io.Writer, cfg SmokeConfig) error {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	// Each client holds at most one job, so with no more clients than
	// queue slots admission never pushes back: any 429 in the burst is
	// a bug, and fetchJob fails the smoke on it.
	clients := min(smokeClients, cfg.QueueDepth)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(runCtx, Config{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth}, out, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-runErr:
		return fmt.Errorf("smoke: server failed to start: %v", err)
	case <-time.After(30 * time.Second):
		return fmt.Errorf("smoke: server did not start")
	}

	// Phase 1: byte-identity against the in-process engines.
	fmt.Fprintln(out, "smoke: phase 1: stream byte-identity vs CLI engines")
	if err := checkByteIdentity(ctx, base); err != nil {
		return fmt.Errorf("smoke: byte-identity: %w", err)
	}

	// Phase 2: the debug-session gauntlet on the same instance: a
	// watchpoint on the kernel trapframe page must hit, state must be
	// inspectable at the pause, and the resumed session must re-run
	// byte-identically.
	fmt.Fprintln(out, "smoke: phase 2: debug-session watchpoint gauntlet")
	if err := checkDebugSession(ctx, base); err != nil {
		return fmt.Errorf("smoke: debug-session: %w", err)
	}

	// Phase 3: the mixed burst, then exact accounting against the
	// client-side count.
	fmt.Fprintf(out, "smoke: phase 3: mixed burst (%d jobs x %d clients)\n", smokeJobs, clients)
	errs, err := parallel.MapCtx(ctx, clients, smokeJobs, func(i int) error {
		_, err := fetchJob(ctx, base, mixRequest(i))
		return err
	})
	if err != nil {
		return fmt.Errorf("smoke: burst: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("smoke: burst job %d (%s): %w", i, mixRequest(i).Type, err)
		}
	}
	// 4 byte-identity jobs + 2 debug sessions + the burst, all ok,
	// nothing queued or running once the burst returns.
	wantAdmitted := uint64(4 + 2 + smokeJobs)
	s, err := Metrics(base)
	if err == nil {
		err = checkAccounting(s, wantAdmitted)
	}
	if err != nil {
		return fmt.Errorf("smoke: metrics accounting: %w", err)
	}
	fmt.Fprintf(out, "smoke: metrics agree with client-side counts (%d admitted, %d ok)\n",
		wantAdmitted, wantAdmitted)

	cancel() // the SIGTERM path: Run drains, then shuts down
	if err := <-runErr; err != nil {
		return fmt.Errorf("smoke: server shutdown: %v", err)
	}
	fmt.Fprintln(out, "smoke: ok — byte-identity, debug sessions, load, accounting, shutdown all verified")
	return nil
}

// mixRequest deterministically maps a burst index to a request, so the
// burst's composition depends only on its size, never on scheduling:
// every tenth job a 3-seed campaign, every tenth from offset 5 a
// 2-seed difftest, the rest program runs across the three delivery
// modes — all streaming per-run progress.
func mixRequest(i int) Request {
	switch i % 10 {
	case 0:
		return Request{Type: TypeCampaign, Seeds: 3, Parallel: 1 + i%3, Verbose: true}
	case 5:
		return Request{Type: TypeDifftest, Seeds: 2, Parallel: 1 + i%2, Verbose: true}
	default:
		modes := []string{"ultrix", "fast", "hardware"}
		return Request{Type: TypeProgramRun, Seed: int64(i), Mode: modes[i%3], Verbose: true}
	}
}

// checkAccounting holds the burst instance's /metrics to the
// client-side count: every admitted job ok, every gauge back at zero,
// every pool checkout a fork or a restore, and the simulator and
// translation-tier counters harvested.
func checkAccounting(s Snapshot, wantAdmitted uint64) error {
	if s.Admitted != wantAdmitted || s.JobsOK != wantAdmitted {
		return fmt.Errorf("admitted/ok = %d/%d, want %d (client-side count)", s.Admitted, s.JobsOK, wantAdmitted)
	}
	if s.JobsFailed != 0 || s.JobsCancelled != 0 {
		return fmt.Errorf("failed=%d cancelled=%d, want 0", s.JobsFailed, s.JobsCancelled)
	}
	if err := checkGauges(s, true); err != nil {
		return err
	}
	// Every checkout is a fork or a restore of the boot snapshot,
	// and a burst this size must have recycled a machine.
	if s.Pool.Gets != s.Pool.Forks+s.Pool.Restores || s.Pool.Restores == 0 {
		return fmt.Errorf("pool accounting: want gets == forks + restores with restores > 0: %+v", s.Pool)
	}
	if s.SessionsStarted != 2 {
		return fmt.Errorf("sessions_started_total = %d, want 2", s.SessionsStarted)
	}
	if s.SimInsts == 0 || s.SimExceptions == 0 || s.SimTLBMisses == 0 || s.SimFastPathHits == 0 {
		return fmt.Errorf("simulator counters not harvested: %+v", s)
	}
	// Translation-tier gauge integrity: campaign kernels run through
	// the JIT (the default engine), so harvested runs must show
	// blocks both compiled and executed — a zero here means the
	// harvest hook and the tier's counters have come unglued.
	if s.SimJITBlocks == 0 || s.SimJITExecs == 0 {
		return fmt.Errorf("translation-tier counters not harvested: blocks=%d execs=%d",
			s.SimJITBlocks, s.SimJITExecs)
	}
	return nil
}

// checkGauges asserts the gauge invariants: no gauge — global or
// per-tenant — may ever read negative, and once the instance is quiet
// they must all have returned to exactly zero. A nonzero residue here
// means a transition was double-counted or skipped somewhere in the
// admit/dequeue/finish path.
func checkGauges(s Snapshot, drained bool) error {
	if s.InFlight < 0 || s.QueueDepth < 0 {
		return fmt.Errorf("negative gauge: inflight=%d queue=%d", s.InFlight, s.QueueDepth)
	}
	for name, ts := range s.Tenants {
		if ts.Queued < 0 || ts.Running < 0 {
			return fmt.Errorf("tenant %q gauge negative: queued=%d running=%d", name, ts.Queued, ts.Running)
		}
		if drained && (ts.Queued != 0 || ts.Running != 0) {
			return fmt.Errorf("tenant %q gauges queued=%d running=%d after drain, want 0/0",
				name, ts.Queued, ts.Running)
		}
	}
	if drained && (s.InFlight != 0 || s.QueueDepth != 0) {
		return fmt.Errorf("gauges inflight=%d queue=%d after drain, want 0/0", s.InFlight, s.QueueDepth)
	}
	return nil
}

// checkByteIdentity proves the serving layer's central guarantee: a
// job stream, reconstructed as progress-lines + summary, is byte-
// identical to the CLI's (stderr -v stream + stdout summary) for the
// same seeds — at more than one shard width.
func checkByteIdentity(ctx context.Context, base string) error {
	const seeds = 5
	for _, typ := range []Type{TypeCampaign, TypeDifftest} {
		want, err := Golden(ctx, typ, seeds)
		if err != nil {
			return err
		}
		for _, par := range []int{1, 4} {
			got, err := fetchJob(ctx, base, Request{Type: typ, Seeds: seeds, Parallel: par, Verbose: true})
			if err != nil {
				return fmt.Errorf("%s parallel %d: %w", typ, par, err)
			}
			if got != want {
				return fmt.Errorf("%s parallel %d: stream output differs from CLI\n--- server ---\n%s\n--- cli ---\n%s",
					typ, par, got, want)
			}
		}
	}
	return nil
}

// fetchJob posts one job and consumes its stream to a verified,
// successful result.
func fetchJob(ctx context.Context, base string, req Request) (string, error) {
	resp, err := PostJob(ctx, base, "", req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d, want 200", resp.StatusCode)
	}
	out, ok, complete, errText := StreamResult(resp.Body)
	if !complete || !ok {
		return "", fmt.Errorf("stream incomplete (ok=%v, err=%s)", ok, errText)
	}
	return out, nil
}

// checkDebugSession proves the debug-session contract end to end: a
// virtual watchpoint on the kernel trapframe page (a kernel DATA page
// — the Ultrix slow path stores every trapped register there) must
// pause the run at the first delivery, the paused state must be
// inspectable, and resuming must finish the job — twice, with the two
// transcripts byte-identical, since a journaled session is re-run
// deterministically after a restart.
func checkDebugSession(ctx context.Context, base string) error {
	tf := uint32(kernel.KStackTop - kernel.TrapframeSize)
	req := Request{Type: TypeDebugSession, Seed: 1, Mode: "ultrix", Verbose: true,
		Commands: []debug.Command{
			{Op: "watch-page", Addr: tf},
			{Op: "continue"},
			{Op: "inspect", Addr: tf, N: 8},
			{Op: "regs"},
			{Op: "step", N: 4},
			{Op: "inspect", Addr: tf, N: 8},
			{Op: "clear", Addr: tf},
			{Op: "continue"},
		}}
	first, err := fetchJob(ctx, base, req)
	if err != nil {
		return err
	}
	if !strings.Contains(first, "hit watch") {
		return fmt.Errorf("watchpoint on the trapframe page never hit:\n%s", first)
	}
	if !strings.Contains(first, "inspect") || !strings.Contains(first, "exit: status=") {
		return fmt.Errorf("session did not inspect and resume to completion:\n%s", first)
	}
	second, err := fetchJob(ctx, base, req)
	if err != nil {
		return err
	}
	if first != second {
		return fmt.Errorf("re-run session transcript differs\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	return nil
}
