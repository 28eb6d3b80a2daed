package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"uexc/internal/core"
	"uexc/internal/debug"
	dt "uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/progen"
	"uexc/internal/sweep"
)

// Type names a job kind the service can execute.
type Type string

const (
	// TypeCampaign runs the deterministic fault-injection campaign
	// (uexc-bench -faultcampaign) over Seeds seeds.
	TypeCampaign Type = "campaign"
	// TypeDifftest runs the cross-mode differential-testing oracle
	// (uexc-bench -difftest) over Seeds seeds.
	TypeDifftest Type = "difftest"
	// TypeFigureSweep regenerates the Figure 3 and Figure 4 break-even
	// sweeps from freshly measured exception costs.
	TypeFigureSweep Type = "figure-sweep"
	// TypeProgramRun generates the progen program for Seed and executes
	// it once under Mode on a pooled machine.
	TypeProgramRun Type = "program-run"
	// TypeDebugSession runs the progen program for Seed under a
	// virtual-breakpoint debug session (internal/debug), executing the
	// request's command script and streaming one transcript line per
	// command.
	TypeDebugSession Type = "debug-session"
)

// Types lists every job kind, in documentation order.
var Types = []Type{TypeCampaign, TypeDifftest, TypeFigureSweep, TypeProgramRun, TypeDebugSession}

// Request is the client-posted job specification.
type Request struct {
	Type Type `json:"type"`

	// Seeds sizes campaign and difftest sweeps.
	Seeds int `json:"seeds,omitempty"`
	// Seed selects the generated program for program-run jobs.
	Seed int64 `json:"seed,omitempty"`
	// Mode selects the delivery mechanism for program-run jobs:
	// "ultrix", "fast"/"fastexc", or "hardware" (case-insensitive).
	Mode string `json:"mode,omitempty"`
	// Parallel is the intra-job shard width handed to the parallel
	// engine (0 = all CPUs), exactly uexc-bench's -parallel flag. The
	// streamed output is byte-identical at any width.
	Parallel int `json:"parallel,omitempty"`
	// Verbose streams per-run progress events (uexc-bench -v).
	Verbose bool `json:"verbose,omitempty"`
	// TimeoutMS optionally tightens the per-job deadline below the
	// server's maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Commands is a debug-session job's command script, executed in
	// order against the Seed/Mode program (see debug.Command).
	Commands []debug.Command `json:"commands,omitempty"`
}

// sweeps maps each sweep job type to its sweep: the one place the
// serving layer tells one sweep from another.
var sweeps = map[Type]sweep.Kind{
	TypeCampaign: harness.Campaign.Kind(),
	TypeDifftest: dt.Oracle.Kind(),
}

// Validate rejects malformed job specifications with a client-facing
// error. maxSeeds caps sweep sizes so one request cannot monopolize
// the service.
func (r *Request) Validate(maxSeeds int) error {
	switch _, isSweep := sweeps[r.Type]; {
	case isSweep:
		if r.Seeds <= 0 {
			return fmt.Errorf("%s: seeds must be positive, got %d", r.Type, r.Seeds)
		}
		if r.Seeds > maxSeeds {
			return fmt.Errorf("%s: seeds %d exceeds the per-job cap %d", r.Type, r.Seeds, maxSeeds)
		}
	case r.Type == TypeProgramRun:
		if _, err := ParseMode(r.Mode); err != nil {
			return err
		}
	case r.Type == TypeDebugSession:
		if _, err := ParseMode(r.Mode); err != nil {
			return err
		}
		if len(r.Commands) == 0 {
			return fmt.Errorf("debug-session: at least one command required")
		}
		if len(r.Commands) > maxSessionCommands {
			return fmt.Errorf("debug-session: %d commands exceeds the cap %d", len(r.Commands), maxSessionCommands)
		}
		for i, c := range r.Commands {
			if !debug.ValidOp(c.Op) {
				return fmt.Errorf("debug-session: command %d: unknown op %q (have %v)", i, c.Op, debug.Ops)
			}
		}
	case r.Type == TypeFigureSweep:
		// Only Parallel applies.
	case r.Type == "":
		return fmt.Errorf("missing job type (have %v)", Types)
	default:
		return fmt.Errorf("unknown job type %q (have %v)", r.Type, Types)
	}
	if r.Parallel < 0 {
		return fmt.Errorf("parallel must be >= 0 (0 selects all CPUs), got %d", r.Parallel)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", r.TimeoutMS)
	}
	return nil
}

// ParseMode maps the wire spelling of a delivery mode to core.Mode.
// The empty string defaults to Ultrix, the semantic baseline.
func ParseMode(s string) (core.Mode, error) {
	switch strings.ToLower(s) {
	case "", "ultrix":
		return core.ModeUltrix, nil
	case "fast", "fastexc":
		return core.ModeFast, nil
	case "hardware":
		return core.ModeHardware, nil
	}
	return 0, fmt.Errorf("unknown mode %q (have ultrix, fast, hardware)", s)
}

// Event is one NDJSON line of a job's response stream: exactly one
// "accepted", zero or more "progress" lines, exactly one terminal
// "result", and a final "trailer" carrying the stream's own record
// count and FNV-1a fingerprint so a client can detect truncation or
// corruption. Concatenating the progress Lines followed by the result
// Summary reproduces, byte for byte, what the equivalent uexc-bench
// invocation writes (progress to stderr under -v, summary to stdout).
type Event struct {
	Type string `json:"type"` // "accepted" | "progress" | "result" | "trailer"
	ID   uint64 `json:"id,omitempty"`
	Job  string `json:"job,omitempty"`  // accepted: the job type
	Line string `json:"line,omitempty"` // progress: one engine output line

	// Result fields.
	OK        *bool  `json:"ok,omitempty"`
	Summary   string `json:"summary,omitempty"`
	Error     string `json:"error,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`

	// Trailer fields: the count and FNV-1a-64 fingerprint of every
	// preceding line of this stream (each including its newline). The
	// trailer line itself is not part of its own fingerprint.
	Records int    `json:"records,omitempty"`
	FNV     string `json:"fnv64,omitempty"`
}

// eventLog is a job's replayable event history: every event ever
// emitted, retained so any number of streams — the original POST
// response, or a later GET /jobs/{id} re-attach after a client
// disconnect or a server restart — can replay it from the start and
// then follow the live tail. close marks the terminal event delivered.
type eventLog struct {
	mu     sync.Mutex
	cond   sync.Cond
	events []Event
	closed bool
}

func newEventLog() *eventLog {
	l := &eventLog{}
	l.cond.L = &l.mu
	return l
}

// append adds one event and wakes every waiting stream.
func (l *eventLog) append(ev Event) {
	l.mu.Lock()
	if !l.closed {
		l.events = append(l.events, ev)
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close marks the log complete (no further events) and wakes waiters.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// broadcast wakes every waiter without changing the log — installed as
// a context.AfterFunc so a disconnecting client's stream unblocks.
func (l *eventLog) broadcast() { l.cond.Broadcast() }

// next blocks until the log has grown past from, closed, or ctx died,
// then returns the events after from and whether the log is closed.
func (l *eventLog) next(ctx context.Context, from int) ([]Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for ctx.Err() == nil && !l.closed && len(l.events) <= from {
		l.cond.Wait()
	}
	var evs []Event
	if from < len(l.events) {
		evs = l.events[from:len(l.events):len(l.events)]
	}
	return evs, l.closed
}

// job is one admitted request in flight. ctx bounds execution: for an
// ephemeral job (no store) it also dies with the client connection;
// for a durable job it derives from the server's base context alone,
// because a journaled job must keep running — and journaling — after
// its client disconnects. The event log replaces a channel so
// streams can re-attach.
type job struct {
	id      uint64
	req     Request
	rawReq  json.RawMessage // the spec as journaled (canonical re-marshal)
	tenant  string          // normalized X-Tenant ("default" if absent)
	ctx     context.Context
	cancel  context.CancelFunc
	log     *eventLog
	resumed int               // durable shards recovered from the journal
	done    []json.RawMessage // their digests, in prefix order
}

// emit appends one event to the job's replayable log. It never blocks:
// a slow or absent consumer costs memory (bounded by the job's own
// output), never a wedged worker.
func (j *job) emit(ev Event) { j.log.append(ev) }

// progressWriter adapts a job to the io.Writer the engines' ordered
// progress streams expect: every write is one complete output line,
// forwarded as one NDJSON progress event.
type progressWriter struct{ j *job }

func (w progressWriter) Write(p []byte) (int, error) {
	w.j.emit(Event{Type: "progress", Line: string(p)})
	return len(p), nil
}

// journal is a durable job's per-shard journal callback. Without a
// store there is nothing to persist, and a nil callback spares the
// sweep marshalling its digests.
func (s *Server) journal(j *job) func(i int, digest json.RawMessage) error {
	if s.store == nil {
		return nil
	}
	return func(i int, d json.RawMessage) error { return s.store.AppendShard(j.id, i, d) }
}

// sweepVerdict turns a folded sweep into a job verdict, counting its
// typed verdicts in /metrics.
func (s *Server) sweepVerdict(res sweep.Result) (bool, string, error) {
	counts := res.Counts()
	s.metrics.add(func(m *metrics) {
		for k, n := range counts {
			m.verdicts[k] += n
		}
	})
	if err := res.Err(); err != nil {
		return false, res.Summary(), err
	}
	return true, res.Summary(), nil
}

// runJob executes one admitted job on the shared machine pool and
// returns its verdict: ok mirrors the engine's own pass/fail notion,
// summary is the exact text the CLI would print to stdout, and err
// carries abort/engine failures. Panics are contained by the caller.
func (s *Server) runJob(j *job) (ok bool, summary string, err error) {
	if sw := sweeps[j.req.Type]; sw != nil {
		return s.runSweep(j, sw)
	}
	switch j.req.Type {
	case TypeFigureSweep:
		s3, err := harness.Figure3(false, j.req.Parallel)
		if err != nil {
			return false, "", err
		}
		if err := j.ctx.Err(); err != nil {
			return false, "", fmt.Errorf("figure sweep aborted: %w", err)
		}
		s4, err := harness.Figure4(false, j.req.Parallel)
		if err != nil {
			return false, "", err
		}
		return true, s3.Render() + "\n" + s4.Render() + "\n", nil

	case TypeProgramRun:
		return s.runProgram(j)

	case TypeDebugSession:
		return s.runDebugSession(j)
	}
	return false, "", fmt.Errorf("unknown job type %q", j.req.Type)
}

// runSweep executes a sweep job under the server's shard runner
// (per-shard retry, deadline, chaos injection) and, when a store is
// configured, journals every merged shard and skips the durable prefix
// recovered from the journal on resume.
func (s *Server) runSweep(j *job, sw sweep.Kind) (bool, string, error) {
	// A nil io.Writer keeps the sweep's "no progress stream" contract;
	// a typed-nil wrapper would defeat its nil check.
	var w io.Writer
	if j.req.Verbose {
		w = progressWriter{j}
	}
	res, err := sw.Resume(j.ctx, sweep.Options{
		Seeds: j.req.Seeds, Workers: j.req.Parallel, Pool: s.pool,
		Progress: w, Runner: s.shardRunner(j),
	}, j.done, s.journal(j))
	if err != nil {
		return false, "", err
	}
	return s.sweepVerdict(res)
}

// runProgram executes one generated program under one mode on a pooled
// machine. The summary digests the observables the difftest oracle
// compares, so the same (seed, mode) always produces the same bytes.
func (s *Server) runProgram(j *job) (bool, string, error) {
	mode, err := ParseMode(j.req.Mode)
	if err != nil {
		return false, "", err
	}
	if err := j.ctx.Err(); err != nil {
		return false, "", fmt.Errorf("program-run aborted: %w", err)
	}
	p := progen.Generate(j.req.Seed)

	m, err := s.pool.Get()
	if err != nil {
		return false, "", fmt.Errorf("boot: %w", err)
	}
	healthy := false
	defer func() {
		if healthy {
			s.pool.Put(m)
		}
	}()
	src := p.Source(mode, false)
	if err := m.LoadProgram(src); err != nil {
		return false, "", fmt.Errorf("load: %w", err)
	}
	if mode == core.ModeHardware {
		m.EnableHardwareDelivery(progen.HWVector)
	}
	runErr := m.Run(dt.SourceBudget(src, false, mode))
	healthy = true

	var b strings.Builder
	fmt.Fprintf(&b, "program-run: seed %d mode %s\n", j.req.Seed, mode)
	episodes := make([]string, 0, len(p.Episodes))
	for _, k := range p.Episodes {
		episodes = append(episodes, k.String())
	}
	fmt.Fprintf(&b, "episodes: %s\n", strings.Join(episodes, " "))
	fmt.Fprintf(&b, "console: %q\n", m.K.Console())
	c := m.Counters()
	fmt.Fprintf(&b, "insts=%d cycles=%d exceptions=%d fast=%d unix=%d\n",
		c.Insts, c.Cycles, c.Exceptions(), c.FastDeliveries, c.UnixDeliveries)
	if runErr != nil {
		fmt.Fprintf(&b, "run error: %s\n", runErr)
		return false, b.String(), fmt.Errorf("program-run: %w", runErr)
	}
	b.WriteString("exit: clean\n")
	return true, b.String(), nil
}
