// Package server is uexc's long-lived serving layer: it exposes the
// repository's engines — fault-injection campaigns, the cross-mode
// differential oracle, figure sweeps, single program runs — as an HTTP
// job service built for sustained concurrent load.
//
// Architecture (DESIGN.md §11, durability §12):
//
//   - Admission control. POST /jobs validates the request and admits
//     it into a bounded queue. A full queue answers 429 with
//     Retry-After — explicit backpressure instead of unbounded memory
//     — and a draining server answers 503.
//   - Execution. A fixed worker pool drains the queue. All jobs share
//     one core.MachinePool, so booted machines are recycled across
//     requests, not just within one campaign; the pool's Harvest hook
//     accumulates every run's simulator counters for /metrics.
//   - Streaming. The response is NDJSON: an accepted event, optional
//     per-run progress events (the engines' ordered progress stream,
//     byte-identical to the CLI at any shard width), a terminal result
//     event carrying the exact summary text the CLI prints, and an
//     integrity trailer (record count + FNV-1a fingerprint). Every
//     job's events are retained in a replayable log, so a stream can
//     re-attach via GET /jobs/{id} after a disconnect or a restart;
//     finished jobs stay re-attachable for JobRetention and are then
//     evicted so the log store does not grow without bound.
//   - Durability. With StoreDir set, admissions, shard checkpoints,
//     and terminal verdicts go through a write-ahead journal
//     (internal/server/store). A killed server restarted with Resume
//     re-admits the journal's pending jobs and resumes each from its
//     durable shard prefix, reproducing the interrupted stream byte
//     for byte.
//   - Retry. Campaign/difftest shards run under a shard runner:
//     bounded retries with exponential backoff and deterministic
//     jitter, a per-shard deadline, and poison-shard quarantine via a
//     typed *ShardError chain.
//   - Deadlines. Every job runs under a context bounded by the
//     server's maximum timeout (tightened per request). Ephemeral jobs
//     (no store) are cancelled when their client disconnects; durable
//     jobs keep running — their stream is re-attachable.
//   - Drain. Drain stops admission, lets every admitted job finish and
//     flush its stream, and only then lets shutdown proceed — wired to
//     SIGTERM by cmd/uexc-serve. Kill is the opposite: a simulated
//     crash (no drain, journal tail dropped) for the chaos harness.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"uexc/internal/core"
	"uexc/internal/server/store"
)

// Config sizes the service.
type Config struct {
	// Addr is the listen address for Run ("" picks 127.0.0.1:0, the
	// ephemeral-port form the smoke harness uses).
	Addr string
	// Workers is the number of jobs executing concurrently (<=0: 4).
	Workers int
	// QueueDepth is the waiting-room capacity beyond the running
	// workers; the Workers+QueueDepth'th concurrent job gets 429
	// (<=0: 16).
	QueueDepth int
	// MaxJobTimeout bounds every job's execution time and is the
	// default when a request does not set timeout_ms (<=0: 120s).
	MaxJobTimeout time.Duration
	// MaxSeeds caps campaign/difftest sweep sizes per job (<=0: 5000).
	MaxSeeds int
	// JobRetention bounds how long a finished job (and its full event
	// log) stays re-attachable via GET /jobs/{id} after its terminal
	// event; past the window the job is evicted so a long-lived server
	// does not retain every stream it ever produced (<=0: 5m). Finished
	// debug-session records are evicted under the same window.
	JobRetention time.Duration

	// WarmBoot is ignored: every machine checkout forks or restores the
	// process-wide boot snapshot (DESIGN.md §16).
	//
	// Deprecated: kept only so the benchmark harness under bench/ still
	// compiles; deleted when that harness next changes.
	WarmBoot bool

	// StoreDir, when set, enables the durable job store: a write-ahead
	// NDJSON journal under this directory records every admission,
	// shard checkpoint, and terminal verdict, so admitted jobs survive
	// a process kill. Durable jobs are decoupled from their client
	// connection (a disconnect no longer cancels them).
	StoreDir string
	// Resume re-admits the journal's pending jobs at startup, each
	// resuming from its durable contiguous shard prefix. Without it an
	// existing journal is kept (and keeps growing) but pending jobs
	// are left for a later -resume incarnation.
	Resume bool
	// CheckpointEvery is the checkpoint cadence: a durable campaign or
	// difftest job journals its merged shard digests every this many
	// prefix shards (<=0: 8).
	CheckpointEvery int
	// StoreSyncEvery is the journal's shard-record fsync batch size,
	// forwarded to store.Options (<=0: 8).
	StoreSyncEvery int
	// StoreSyncDelay, when non-nil, runs before every journal fsync —
	// the chaos harness's slow-fsync injection point.
	StoreSyncDelay func()

	// ShardAttempts bounds how many times one campaign/difftest shard
	// is executed before it is quarantined as poison (<=0: 3).
	ShardAttempts int
	// ShardBackoff is the base pause before a shard retry, doubled per
	// attempt with deterministic jitter (<=0: 5ms).
	ShardBackoff time.Duration
	// ShardDeadline is the per-attempt shard deadline: injected stalls
	// at or past it fail the attempt, and organically slower shards
	// are counted as timeouts (<=0: 60s).
	ShardDeadline time.Duration
	// ShardFault, when non-nil, is consulted before every shard
	// attempt — the chaos harness's fault-injection point.
	ShardFault func(job uint64, shard, attempt int) ShardFault

	// Tenants caps each X-Tenant key's admission (in-flight jobs,
	// queued jobs, seeds/s token bucket). Zero value: unlimited.
	Tenants TenantLimits

	// WorkerNodes, when non-empty, runs this server as a fleet
	// coordinator: campaign/difftest jobs are split into shard ranges
	// and dispatched to these worker base URLs (DESIGN.md §13).
	WorkerNodes []string
	// DispatchShards is the target shards per dispatched range (<=0:
	// 12) — small enough to rebalance around a dead worker, large
	// enough to amortize the HTTP round trip.
	DispatchShards int
	// WorkerQuarantine is the cooldown before a worker that kept
	// failing is retried (<=0: 2s).
	WorkerQuarantine time.Duration
	// DispatchTimeout bounds one range dispatch end to end, so a hung
	// worker cannot wedge the merge (<=0: MaxJobTimeout).
	DispatchTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 120 * time.Second
	}
	if c.MaxSeeds <= 0 {
		c.MaxSeeds = 5000
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 5 * time.Minute
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.ShardAttempts <= 0 {
		c.ShardAttempts = 3
	}
	if c.ShardBackoff <= 0 {
		c.ShardBackoff = 5 * time.Millisecond
	}
	if c.ShardDeadline <= 0 {
		c.ShardDeadline = 60 * time.Second
	}
	if c.DispatchShards <= 0 {
		c.DispatchShards = 12
	}
	if c.WorkerQuarantine <= 0 {
		c.WorkerQuarantine = 2 * time.Second
	}
	if c.DispatchTimeout <= 0 {
		c.DispatchTimeout = c.MaxJobTimeout
	}
	return c
}

// Server is one serving instance. Create with New, expose via
// Handler, stop with Drain (keeps workers alive, rejects new work)
// and Close (drain + retire the workers), or Kill (simulated crash).
type Server struct {
	cfg     Config
	pool    *core.MachinePool
	metrics *Metrics
	store   *store.Store // nil without StoreDir
	tenants *tenantRegistry
	fleet   *fleet // nil unless WorkerNodes is set
	queue   chan *job
	stop    chan struct{}
	nextID  atomic.Uint64
	mux     *http.ServeMux

	// baseCtx is the ancestor of every durable job's context: it dies
	// only on Kill, never on client disconnect.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex // guards draining, killed, jobs, sessions, and the admit/Drain race
	draining bool
	killed   bool
	jobs     map[uint64]*job     // every admitted job, by ID, for re-attach
	sessions map[uint64]*session // debug-session records, by job ID, until eviction
	jobWG    sync.WaitGroup      // admitted jobs not yet finished

	workerWG sync.WaitGroup

	// execHook, when non-nil, replaces runJob — a seam the tests and
	// the smoke harness use to hold jobs in place, making queue-full
	// and drain conditions deterministic regardless of engine speed.
	execHook func(j *job) (bool, string, error)
}

// New builds a Server, replays its journal if StoreDir is set (and
// re-admits pending jobs under Resume), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     &core.MachinePool{},
		metrics:  newMetrics(),
		tenants:  newTenantRegistry(cfg.Tenants),
		stop:     make(chan struct{}),
		jobs:     make(map[uint64]*job),
		sessions: make(map[uint64]*session),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.pool.Harvest = s.metrics.harvest
	// Boot before any job can check a machine out, so a broken kernel
	// image fails startup rather than the first job.
	if _, err := core.BootSnapshot(); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if len(cfg.WorkerNodes) > 0 {
		s.fleet = newFleet(s, cfg.WorkerNodes)
	}

	var pending []store.PendingJob
	if cfg.StoreDir != "" {
		st, state, err := store.Open(cfg.StoreDir, store.Options{
			SyncEvery: cfg.StoreSyncEvery, SyncDelay: cfg.StoreSyncDelay,
		})
		if err != nil {
			return nil, err
		}
		s.store = st
		s.nextID.Store(state.MaxID)
		s.metrics.Restarts.Store(state.Restarts)
		if cfg.Resume {
			pending = state.Pending
		}
	}

	// The queue grows by the replayed jobs so a resumed backlog cannot
	// deadlock admission against its own capacity.
	s.queue = make(chan *job, cfg.QueueDepth+len(pending))
	for _, p := range pending {
		j, err := s.resumeJob(p)
		if err != nil {
			// A spec this incarnation cannot run (corrupt digest, cap
			// lowered) is finished with the error rather than wedging
			// the journal forever.
			_ = s.store.FinishJob(p.ID, false, "", "resume: "+err.Error())
			continue
		}
		s.jobs[j.id] = j
		s.jobWG.Add(1)
		s.tenants.adopt(j.tenant)
		s.queue <- j
		s.metrics.ReplayedJobs.Add(1)
		s.metrics.ResumedShards.Add(uint64(len(p.Shards)))
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJobGet)
	s.mux.HandleFunc("/sessions/", s.handleSessionGet)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	for w := 0; w < cfg.Workers; w++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// resumeJob rebuilds a journaled pending job for re-execution: same
// ID, same spec, and the durable shard prefix to skip. Its deadline
// restarts at re-admission (wall time already burned died with the
// previous process).
func (s *Server) resumeJob(p store.PendingJob) (*job, error) {
	var req Request
	if err := json.Unmarshal(p.Req, &req); err != nil {
		return nil, fmt.Errorf("journaled spec: %w", err)
	}
	if err := req.Validate(s.cfg.MaxSeeds); err != nil {
		return nil, err
	}
	j := &job{
		id: p.ID, req: req, rawReq: p.Req,
		tenant:  tenantName(p.Tenant),
		log:     newEventLog(),
		resumed: len(p.Shards),
		done:    p.Shards,
	}
	j.ctx, j.cancel = s.jobContext(s.baseCtx, req)
	j.emit(Event{Type: "accepted", ID: j.id, Job: string(req.Type)})
	return j, nil
}

// jobContext derives a job's execution context from parent, bounded
// by the server cap tightened by the request's own timeout.
func (s *Server) jobContext(parent context.Context, req Request) (context.Context, context.CancelFunc) {
	timeout := s.cfg.MaxJobTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	return context.WithTimeout(parent, timeout)
}

// Handler returns the HTTP surface: /jobs, /jobs/{id}, /metrics,
// /healthz, and /debug/pprof.
func (s *Server) Handler() http.Handler { return s.mux }

// isDraining reports whether admission is closed.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain closes admission and blocks until every already-admitted job
// has finished executing (its stream may still be flushing to a slow
// client; HTTP shutdown handles that wait). Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	killed := s.killed
	s.mu.Unlock()
	if !killed {
		s.jobWG.Wait()
	}
}

// Close drains, retires the worker pool, and closes the journal
// cleanly (every batched record flushed and fsynced).
func (s *Server) Close() {
	s.Drain()
	s.mu.Lock()
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.mu.Unlock()
	s.workerWG.Wait()
	if s.store != nil {
		_ = s.store.Close()
	}
}

// Kill simulates a crash for the chaos harness: admission stops, the
// base context dies (in-flight engines unwind at their next shard
// boundary), the journal is abandoned mid-batch exactly as SIGKILL
// would leave it — unflushed records lost, no finish markers written —
// and queued jobs are dropped with their streams cut. The journal
// still holds every admitted-but-unfinished job for the next
// incarnation to resume.
func (s *Server) Kill() {
	s.mu.Lock()
	s.draining = true
	s.killed = true
	s.mu.Unlock()
	// Abandon the journal BEFORE cancelling the jobs: once the base
	// context is dead, shard runners start giving up without running
	// their shards, and no window may exist in which such a skipped
	// shard's checkpoint could still reach the journal — a durable
	// zero-value digest would corrupt the resumable prefix.
	if s.store != nil {
		s.store.Abandon()
	}
	s.baseCancel()
	s.mu.Lock()
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.mu.Unlock()
	s.workerWG.Wait()
	// Workers are gone; drop what they never started. Streams end
	// without a result event — the crash signature clients see.
	for {
		select {
		case j := <-s.queue:
			j.cancel()
			j.log.close()
			s.tenants.drop(j.tenant)
			s.jobWG.Done()
		default:
			return
		}
	}
}

// admit places a job in the queue and journals the admission. The
// lock makes the draining check, the capacity check, the tenant quota
// charge, and the WaitGroup add atomic with respect to Drain and other
// admits: after Drain returns no job can be admitted, and a
// checked-free slot cannot be stolen (only admit sends, and only under
// this lock). retryAfter is the backpressure hint in seconds,
// meaningful only on 429/503.
func (s *Server) admit(j *job) (status, retryAfter int, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.metrics.RejectedDraining.Add(1)
		return http.StatusServiceUnavailable, retryAfterSeconds, "server draining, not admitting jobs"
	}
	if len(s.queue) == cap(s.queue) {
		s.metrics.RejectedFull.Add(1)
		return http.StatusTooManyRequests, retryAfterSeconds, "queue full, retry later"
	}
	// Tenant quotas come after the shared-capacity checks (a full queue
	// is everyone's problem first) and before the journal: a rejected
	// tenant must leave no durable trace.
	if wait, err := s.tenants.admit(j.tenant, admissionCost(&j.req)); err != nil {
		s.metrics.RejectedTenant.Add(1)
		return http.StatusTooManyRequests, wait, err.Error()
	}
	if s.store != nil {
		// Journal before acknowledging: an accepted event is a promise
		// that survives a kill.
		if err := s.store.AcceptJob(j.id, j.rawReq, j.tenant); err != nil {
			s.tenants.release(j.tenant)
			return http.StatusInternalServerError, 0, "journal admission: " + err.Error()
		}
	}
	// Register and emit the accepted event BEFORE handing the job to a
	// worker: once queued, a worker may emit progress — or even close
	// the event log — and the accepted event must be first in every
	// replayed stream. The send cannot block: capacity was checked
	// above and only admit sends, only under this lock.
	s.jobs[j.id] = j
	s.jobWG.Add(1)
	s.metrics.Admitted.Add(1)
	s.metrics.byType[j.req.Type].Add(1)
	j.emit(Event{Type: "accepted", ID: j.id, Job: string(j.req.Type)})
	s.queue <- j
	return http.StatusOK, 0, ""
}

// tenantName normalizes the X-Tenant header: every job belongs to a
// tenant, the anonymous ones to "default".
func tenantName(h string) string {
	if h == "" {
		return "default"
	}
	return h
}

// worker executes queued jobs until the server closes.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case j := <-s.queue:
			s.execute(j)
		case <-s.stop:
			// Close drains the queue first; Kill sweeps the leftovers.
			return
		}
	}
}

// execute runs one job to completion, journals the verdict (unless a
// kill is in progress — an unfinished job must stay pending), and
// closes the event log after the terminal event.
func (s *Server) execute(j *job) {
	defer s.jobWG.Done()
	defer j.cancel()
	s.metrics.InFlight.Add(1)
	s.tenants.start(j.tenant)

	start := time.Now()
	var (
		ok      bool
		summary string
		err     error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if se, poisoned := r.(*ShardError); poisoned {
					ok, summary, err = false, "", se
				} else {
					ok, summary, err = false, "", fmt.Errorf("job panicked: %v", r)
				}
			}
		}()
		if s.execHook != nil {
			ok, summary, err = s.execHook(j)
		} else {
			ok, summary, err = s.runJob(j)
		}
	}()

	// Settle the running gauges before anything that marks the job
	// finished: a reader who has seen the terminal counter or the
	// result event must not still read the job as in flight.
	s.metrics.InFlight.Add(-1)
	s.tenants.done(j.tenant)

	var se *ShardError
	switch {
	case ok:
		s.metrics.JobsOK.Add(1)
	case errors.As(err, &se):
		// Poison quarantine is a job failure even though the quarantine
		// cancelled the rest of the sweep.
		s.metrics.JobsFailed.Add(1)
	case j.ctx.Err() != nil:
		s.metrics.JobsCancelled.Add(1)
	default:
		s.metrics.JobsFailed.Add(1)
	}

	if s.store != nil && s.baseCtx.Err() == nil {
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		_ = s.store.FinishJob(j.id, ok, summary, errText)
	}

	ev := Event{
		Type: "result", ID: j.id, OK: &ok, Summary: summary,
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	if err != nil {
		ev.Error = err.Error()
	}
	j.emit(ev)
	j.log.close()

	// The stream is terminal; keep the job re-attachable for the
	// retention window, then evict it so s.jobs and its event log (every
	// progress line the job ever produced) don't grow without bound on a
	// long-lived server. A late GET simply 404s, like an unknown ID.
	time.AfterFunc(s.cfg.JobRetention, func() {
		s.mu.Lock()
		if _, live := s.jobs[j.id]; live {
			delete(s.jobs, j.id)
			s.metrics.JobsEvicted.Add(1)
		}
		s.mu.Unlock()
	})
}

// retryAfterSeconds is the backpressure hint on 429/503 responses.
const retryAfterSeconds = 1

// handleJobs is POST /jobs: validate, admit, stream.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "malformed job: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := req.Validate(s.cfg.MaxSeeds); err != nil {
		s.metrics.BadRequests.Add(1)
		http.Error(w, "invalid job: "+err.Error(), http.StatusBadRequest)
		return
	}
	raw, err := json.Marshal(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Ephemeral jobs die with their client; durable (journaled) jobs
	// run on the server's base context — the journal has promised
	// they finish, and their stream can re-attach.
	parent := r.Context()
	if s.store != nil {
		parent = s.baseCtx
	}
	j := &job{
		id: s.nextID.Add(1), req: req, rawReq: raw,
		tenant: tenantName(r.Header.Get("X-Tenant")),
		log:    newEventLog(),
	}
	j.ctx, j.cancel = s.jobContext(parent, req)

	if status, retryAfter, msg := s.admit(j); status != http.StatusOK {
		j.cancel()
		if status != http.StatusInternalServerError {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		}
		http.Error(w, msg, status)
		return
	}
	s.streamJob(w, r, j)
}

// handleJobGet is GET /jobs/{id}: re-attach to an admitted job's
// stream, replaying its full event log from the start and following
// the live tail — the recovery path for disconnected clients and for
// jobs resumed from the journal after a crash.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	id, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/jobs/"), 10, 64)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	s.streamJob(w, r, j)
}

// streamJob writes a job's event log as NDJSON from the beginning,
// blocking on the live tail until the log closes, then appends the
// integrity trailer: the count and FNV-1a-64 fingerprint of every
// line written (trailer excluded). Returns early, without a trailer,
// only if the client goes away.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	// A disconnect must wake the log wait below.
	defer context.AfterFunc(r.Context(), j.log.broadcast)()

	h := fnv.New64a()
	records := 0
	for from := 0; ; {
		evs, closed := j.log.next(r.Context(), from)
		for _, ev := range evs {
			line, err := json.Marshal(ev)
			if err != nil {
				return
			}
			line = append(line, '\n')
			h.Write(line)
			records++
			if _, err := w.Write(line); err != nil {
				return // client gone; the job itself is unaffected if durable
			}
			flush()
		}
		from += len(evs)
		if closed && len(evs) == 0 {
			break
		}
		if r.Context().Err() != nil {
			return
		}
	}
	trailer, err := json.Marshal(Event{
		Type: "trailer", ID: j.id, Records: records,
		FNV: fmt.Sprintf("%016x", h.Sum64()),
	})
	if err != nil {
		return
	}
	_, _ = w.Write(append(trailer, '\n'))
	flush()
}

// handleMetrics is GET /metrics: flat text by default, JSON with
// ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = snap.renderJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	snap.renderText(w)
}

// handleHealthz reports readiness: 200 while admitting, 503 while
// draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// Run serves cfg.Addr until ctx is cancelled (SIGTERM in
// cmd/uexc-serve), then drains gracefully: admission closes, admitted
// jobs finish and flush, and only then does the listener shut down.
// The bound address is reported through ready (buffered; may be nil)
// as soon as the listener is up.
func Run(ctx context.Context, cfg Config, logw io.Writer, ready chan<- string) error {
	s, err := New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()

	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	if logw != nil {
		fmt.Fprintf(logw, "uexc-serve: listening on %s (workers %d, queue %d)\n",
			ln.Addr(), s.cfg.Workers, s.cfg.QueueDepth)
		if s.store != nil {
			fmt.Fprintf(logw, "uexc-serve: journal %s: restart #%d, %d jobs replayed (%d durable shards)\n",
				cfg.StoreDir, s.metrics.Restarts.Load(), s.metrics.ReplayedJobs.Load(), s.metrics.ResumedShards.Load())
		}
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	if logw != nil {
		fmt.Fprintln(logw, "uexc-serve: drain: admission closed, finishing in-flight jobs")
	}
	s.Drain()
	// Streams may still be flushing; Shutdown waits for the handlers.
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = hs.Shutdown(shutCtx)
	if logw != nil {
		fmt.Fprintln(logw, "uexc-serve: drained, bye")
	}
	return err
}
