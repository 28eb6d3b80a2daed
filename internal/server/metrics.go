package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"uexc/internal/core"
	"uexc/internal/verdict"
)

// metrics is the server's observability surface: admission and
// completion counters, the in-flight gauge, and the simulator's own
// counters accumulated from every pooled machine as it is returned
// after a run (core.MachinePool.Harvest). All fields are atomics; the
// struct is safe for concurrent update from workers and handlers.
type metrics struct {
	Admitted         atomic.Uint64 // jobs accepted into the queue
	RejectedFull     atomic.Uint64 // 429: queue at capacity
	RejectedDraining atomic.Uint64 // 503: drain in progress
	RejectedTenant   atomic.Uint64 // 429: a tenant quota said no
	BadRequests      atomic.Uint64 // 4xx: malformed or invalid job specs or X-Tenant headers

	JobsOK        atomic.Uint64 // completed with ok=true
	JobsFailed    atomic.Uint64 // completed with ok=false (engine failure)
	JobsCancelled atomic.Uint64 // aborted by deadline or client disconnect
	JobsEvicted   atomic.Uint64 // finished jobs dropped after the retention window

	// Debug-session lifecycle (DESIGN.md §16): started sessions, and
	// finished session records dropped after the retention window — the
	// same eviction rule finished jobs follow.
	SessionsStarted atomic.Uint64
	SessionsEvicted atomic.Uint64

	InFlight atomic.Int64 // jobs currently executing on a worker

	// Durability counters (DESIGN.md §12).
	Restarts       atomic.Uint64 // journal restart records (process incarnations)
	ReplayedJobs   atomic.Uint64 // pending jobs re-admitted from the journal
	ResumedShards  atomic.Uint64 // durable shards skipped on resume
	Checkpoints    atomic.Uint64 // shard-prefix checkpoints fsynced
	ShardRetries   atomic.Uint64 // shard attempts after a failure
	ShardsPoisoned atomic.Uint64 // shards quarantined after the last retry
	ShardStalls    atomic.Uint64 // injected shard stalls observed
	ShardTimeouts  atomic.Uint64 // shard attempts at or past the deadline

	// Fleet counters (coordinator mode, DESIGN.md §13).
	FleetDispatches    atomic.Uint64 // shard ranges sent to workers
	FleetRedispatches  atomic.Uint64 // ranges re-sent after a worker failure
	FleetAcks          atomic.Uint64 // ranges fully merged into the frontier
	WorkersQuarantined atomic.Uint64 // worker quarantine episodes

	// Verdicts counts campaign runs by typed classification
	// (DESIGN.md §14), folded from every completed campaign/difftest
	// job's result.
	Verdicts [verdict.NumKinds]atomic.Uint64

	byType map[Type]*atomic.Uint64 // admitted jobs by type

	// Simulator counters, harvested at machine Put time.
	SimFastDeliveries atomic.Uint64 // exceptions vectored to user handlers by the fast path
	SimUnixDeliveries atomic.Uint64 // signals delivered via the Ultrix path
	SimExceptions     atomic.Uint64 // every exception the CPU raised (all causes)
	SimTLBHits        atomic.Uint64
	SimTLBMisses      atomic.Uint64
	SimFastPathHits   atomic.Uint64 // interpreter micro-TLB fast-path hits
	SimInsts          atomic.Uint64
	SimCycles         atomic.Uint64

	// Translation-tier counters (cpu/translate.go). Like the fast-path
	// hits they are purely diagnostic — never part of a run fingerprint.
	SimJITBlocks        atomic.Uint64 // basic blocks compiled
	SimJITExecs         atomic.Uint64 // block entries that retired at least one instruction
	SimJITGuardMisses   atomic.Uint64 // block entries rejected by a non-generation guard
	SimJITInvalidations atomic.Uint64 // block entries rejected by a moved page generation
}

// newMetrics builds a metrics with one per-type admission counter for
// every known job type.
func newMetrics() *metrics {
	m := &metrics{byType: make(map[Type]*atomic.Uint64, len(Types))}
	for _, t := range Types {
		m.byType[t] = &atomic.Uint64{}
	}
	return m
}

// addVerdicts folds one completed sweep's verdict tally into the
// counters.
func (m *metrics) addVerdicts(c verdict.Counts) {
	for k := verdict.Kind(0); k < verdict.NumKinds; k++ {
		if c[k] > 0 {
			m.Verdicts[k].Add(uint64(c[k]))
		}
	}
}

// harvest accumulates one finished run's simulator counters. Installed
// as the machine pool's Harvest hook, so it observes the machine after
// the run and before the next checkout's restore wipes it.
func (m *metrics) harvest(mach *core.Machine) {
	st := mach.K.Stats
	m.SimFastDeliveries.Add(st.FastDeliveries)
	m.SimUnixDeliveries.Add(st.UnixDeliveries)
	c := mach.CPU()
	var exc uint64
	for _, n := range c.ExcCounts {
		exc += n
	}
	m.SimExceptions.Add(exc)
	m.SimTLBHits.Add(mach.K.TLB.Hits)
	m.SimTLBMisses.Add(mach.K.TLB.Misses)
	m.SimFastPathHits.Add(c.FastHits)
	m.SimInsts.Add(c.Insts)
	m.SimCycles.Add(c.Cycles)
	m.SimJITBlocks.Add(c.JITBlocks)
	m.SimJITExecs.Add(c.JITExecs)
	m.SimJITGuardMisses.Add(c.JITGuardMisses)
	m.SimJITInvalidations.Add(c.JITInvalidations)
}

// Snapshot is a consistent-enough (each field individually atomic)
// copy of the metrics for rendering and for client-side verification.
type Snapshot struct {
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	InFlight      int64 `json:"inflight_jobs"`
	Draining      bool  `json:"draining"`

	Admitted         uint64 `json:"jobs_admitted_total"`
	RejectedFull     uint64 `json:"jobs_rejected_full_total"`
	RejectedDraining uint64 `json:"jobs_rejected_draining_total"`
	RejectedTenant   uint64 `json:"jobs_rejected_tenant_total"`
	BadRequests      uint64 `json:"bad_requests_total"`

	JobsOK        uint64 `json:"jobs_ok_total"`
	JobsFailed    uint64 `json:"jobs_failed_total"`
	JobsCancelled uint64 `json:"jobs_cancelled_total"`
	JobsEvicted   uint64 `json:"jobs_evicted_total"`

	SessionsStarted uint64 `json:"sessions_started_total"`
	SessionsActive  int    `json:"sessions_active"`
	SessionsEvicted uint64 `json:"sessions_evicted_total"`

	JobsByType map[string]uint64 `json:"jobs_by_type"`

	// Verdicts is the cumulative run-classification tally across every
	// completed campaign and difftest job (DESIGN.md §14).
	Verdicts map[string]uint64 `json:"run_verdicts"`

	// Tenants is per-tenant admission state; present once a tenant has
	// been seen.
	Tenants map[string]TenantSnapshot `json:"tenants,omitempty"`

	FleetEnabled       bool   `json:"fleet_enabled"`
	FleetWorkers       int    `json:"fleet_workers"`
	FleetDispatches    uint64 `json:"fleet_dispatches_total"`
	FleetRedispatches  uint64 `json:"fleet_redispatches_total"`
	FleetAcks          uint64 `json:"fleet_acks_total"`
	WorkersQuarantined uint64 `json:"fleet_workers_quarantined_total"`

	StoreEnabled   bool   `json:"store_enabled"`
	Restarts       uint64 `json:"restarts_total"`
	ReplayedJobs   uint64 `json:"jobs_replayed_total"`
	ResumedShards  uint64 `json:"shards_resumed_total"`
	Checkpoints    uint64 `json:"checkpoints_total"`
	ShardRetries   uint64 `json:"shard_retries_total"`
	ShardsPoisoned uint64 `json:"shards_poisoned_total"`
	ShardStalls    uint64 `json:"shard_stalls_total"`
	ShardTimeouts  uint64 `json:"shard_timeouts_total"`
	JournalAppends uint64 `json:"journal_appends_total"`
	JournalSyncs   uint64 `json:"journal_syncs_total"`
	JournalLost    uint64 `json:"journal_lost_total"`

	Pool        core.PoolStats `json:"machine_pool"`
	PoolHitRate float64        `json:"machine_pool_hit_rate"`

	SimFastDeliveries uint64 `json:"sim_fast_deliveries_total"`
	SimUnixDeliveries uint64 `json:"sim_unix_deliveries_total"`
	SimExceptions     uint64 `json:"sim_exceptions_total"`
	SimTLBHits        uint64 `json:"sim_tlb_hits_total"`
	SimTLBMisses      uint64 `json:"sim_tlb_misses_total"`
	SimFastPathHits   uint64 `json:"sim_fastpath_hits_total"`
	SimInsts          uint64 `json:"sim_insts_total"`
	SimCycles         uint64 `json:"sim_cycles_total"`

	SimJITBlocks        uint64 `json:"sim_jit_blocks_compiled_total"`
	SimJITExecs         uint64 `json:"sim_jit_block_execs_total"`
	SimJITGuardMisses   uint64 `json:"sim_jit_guard_misses_total"`
	SimJITInvalidations uint64 `json:"sim_jit_invalidations_total"`
}

// snapshot gathers the current counter values plus queue/pool state
// owned by the server.
func (s *Server) snapshot() Snapshot {
	m := s.metrics
	snap := Snapshot{
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		InFlight:      m.InFlight.Load(),
		Draining:      s.isDraining(),

		Admitted:         m.Admitted.Load(),
		RejectedFull:     m.RejectedFull.Load(),
		RejectedDraining: m.RejectedDraining.Load(),
		RejectedTenant:   m.RejectedTenant.Load(),
		BadRequests:      m.BadRequests.Load(),

		Tenants: s.tenants.snapshot(),

		FleetEnabled:       s.fleet != nil,
		FleetWorkers:       len(s.cfg.WorkerNodes),
		FleetDispatches:    m.FleetDispatches.Load(),
		FleetRedispatches:  m.FleetRedispatches.Load(),
		FleetAcks:          m.FleetAcks.Load(),
		WorkersQuarantined: m.WorkersQuarantined.Load(),

		JobsOK:        m.JobsOK.Load(),
		JobsFailed:    m.JobsFailed.Load(),
		JobsCancelled: m.JobsCancelled.Load(),
		JobsEvicted:   m.JobsEvicted.Load(),

		SessionsStarted: m.SessionsStarted.Load(),
		SessionsActive:  s.sessionCount(),
		SessionsEvicted: m.SessionsEvicted.Load(),

		JobsByType: make(map[string]uint64, len(m.byType)),
		Verdicts:   make(map[string]uint64, verdict.NumKinds),

		StoreEnabled:   s.store != nil,
		Restarts:       m.Restarts.Load(),
		ReplayedJobs:   m.ReplayedJobs.Load(),
		ResumedShards:  m.ResumedShards.Load(),
		Checkpoints:    m.Checkpoints.Load(),
		ShardRetries:   m.ShardRetries.Load(),
		ShardsPoisoned: m.ShardsPoisoned.Load(),
		ShardStalls:    m.ShardStalls.Load(),
		ShardTimeouts:  m.ShardTimeouts.Load(),

		Pool: s.pool.Stats(),

		SimFastDeliveries: m.SimFastDeliveries.Load(),
		SimUnixDeliveries: m.SimUnixDeliveries.Load(),
		SimExceptions:     m.SimExceptions.Load(),
		SimTLBHits:        m.SimTLBHits.Load(),
		SimTLBMisses:      m.SimTLBMisses.Load(),
		SimFastPathHits:   m.SimFastPathHits.Load(),
		SimInsts:          m.SimInsts.Load(),
		SimCycles:         m.SimCycles.Load(),

		SimJITBlocks:        m.SimJITBlocks.Load(),
		SimJITExecs:         m.SimJITExecs.Load(),
		SimJITGuardMisses:   m.SimJITGuardMisses.Load(),
		SimJITInvalidations: m.SimJITInvalidations.Load(),
	}
	if s.store != nil {
		jst := s.store.Stats()
		snap.JournalAppends = jst.Appends
		snap.JournalSyncs = jst.Syncs
		snap.JournalLost = jst.Lost
	}
	for t, c := range m.byType {
		snap.JobsByType[string(t)] = c.Load()
	}
	for k := verdict.Kind(0); k < verdict.NumKinds; k++ {
		snap.Verdicts[k.String()] = m.Verdicts[k].Load()
	}
	if snap.Pool.Gets > 0 {
		// A checkout served by restoring a pooled machine is a hit; a
		// fork onto fresh hardware is a miss.
		snap.PoolHitRate = float64(snap.Pool.Restores) / float64(snap.Pool.Gets)
	}
	return snap
}

// renderText writes the snapshot in the flat `name value` exposition
// format (Prometheus-style, one counter per line, keys sorted).
func (snap Snapshot) renderText(w io.Writer) {
	lines := map[string]string{
		"uexc_queue_depth":                     fmt.Sprint(snap.QueueDepth),
		"uexc_queue_capacity":                  fmt.Sprint(snap.QueueCapacity),
		"uexc_inflight_jobs":                   fmt.Sprint(snap.InFlight),
		"uexc_draining":                        fmt.Sprint(boolToInt(snap.Draining)),
		"uexc_jobs_admitted_total":             fmt.Sprint(snap.Admitted),
		"uexc_jobs_rejected_full_total":        fmt.Sprint(snap.RejectedFull),
		"uexc_jobs_rejected_draining_total":    fmt.Sprint(snap.RejectedDraining),
		"uexc_jobs_rejected_tenant_total":      fmt.Sprint(snap.RejectedTenant),
		"uexc_fleet_enabled":                   fmt.Sprint(boolToInt(snap.FleetEnabled)),
		"uexc_fleet_workers":                   fmt.Sprint(snap.FleetWorkers),
		"uexc_fleet_dispatches_total":          fmt.Sprint(snap.FleetDispatches),
		"uexc_fleet_redispatches_total":        fmt.Sprint(snap.FleetRedispatches),
		"uexc_fleet_acks_total":                fmt.Sprint(snap.FleetAcks),
		"uexc_fleet_workers_quarantined_total": fmt.Sprint(snap.WorkersQuarantined),
		"uexc_bad_requests_total":              fmt.Sprint(snap.BadRequests),
		"uexc_jobs_ok_total":                   fmt.Sprint(snap.JobsOK),
		"uexc_jobs_failed_total":               fmt.Sprint(snap.JobsFailed),
		"uexc_jobs_cancelled_total":            fmt.Sprint(snap.JobsCancelled),
		"uexc_jobs_evicted_total":              fmt.Sprint(snap.JobsEvicted),
		"uexc_sessions_started_total":          fmt.Sprint(snap.SessionsStarted),
		"uexc_sessions_active":                 fmt.Sprint(snap.SessionsActive),
		"uexc_sessions_evicted_total":          fmt.Sprint(snap.SessionsEvicted),
		"uexc_store_enabled":                   fmt.Sprint(boolToInt(snap.StoreEnabled)),
		"uexc_restarts_total":                  fmt.Sprint(snap.Restarts),
		"uexc_jobs_replayed_total":             fmt.Sprint(snap.ReplayedJobs),
		"uexc_shards_resumed_total":            fmt.Sprint(snap.ResumedShards),
		"uexc_checkpoints_total":               fmt.Sprint(snap.Checkpoints),
		"uexc_shard_retries_total":             fmt.Sprint(snap.ShardRetries),
		"uexc_shards_poisoned_total":           fmt.Sprint(snap.ShardsPoisoned),
		"uexc_shard_stalls_total":              fmt.Sprint(snap.ShardStalls),
		"uexc_shard_timeouts_total":            fmt.Sprint(snap.ShardTimeouts),
		"uexc_journal_appends_total":           fmt.Sprint(snap.JournalAppends),
		"uexc_journal_syncs_total":             fmt.Sprint(snap.JournalSyncs),
		"uexc_journal_lost_total":              fmt.Sprint(snap.JournalLost),
		"uexc_pool_gets_total":                 fmt.Sprint(snap.Pool.Gets),
		"uexc_pool_puts_total":                 fmt.Sprint(snap.Pool.Puts),
		"uexc_pool_forks_total":                fmt.Sprint(snap.Pool.Forks),
		"uexc_pool_restores_total":             fmt.Sprint(snap.Pool.Restores),
		"uexc_pool_hit_rate":                   fmt.Sprintf("%.4f", snap.PoolHitRate),
		"uexc_sim_fast_deliveries_total":       fmt.Sprint(snap.SimFastDeliveries),
		"uexc_sim_unix_deliveries_total":       fmt.Sprint(snap.SimUnixDeliveries),
		"uexc_sim_exceptions_total":            fmt.Sprint(snap.SimExceptions),
		"uexc_sim_tlb_hits_total":              fmt.Sprint(snap.SimTLBHits),
		"uexc_sim_tlb_misses_total":            fmt.Sprint(snap.SimTLBMisses),
		"uexc_sim_fastpath_hits_total":         fmt.Sprint(snap.SimFastPathHits),
		"uexc_sim_insts_total":                 fmt.Sprint(snap.SimInsts),
		"uexc_sim_cycles_total":                fmt.Sprint(snap.SimCycles),
		"uexc_sim_jit_blocks_compiled_total":   fmt.Sprint(snap.SimJITBlocks),
		"uexc_sim_jit_block_execs_total":       fmt.Sprint(snap.SimJITExecs),
		"uexc_sim_jit_guard_misses_total":      fmt.Sprint(snap.SimJITGuardMisses),
		"uexc_sim_jit_invalidations_total":     fmt.Sprint(snap.SimJITInvalidations),
	}
	for t, n := range snap.JobsByType {
		lines[fmt.Sprintf("uexc_jobs_admitted_by_type_total{type=%q}", t)] = fmt.Sprint(n)
	}
	for v, n := range snap.Verdicts {
		lines[fmt.Sprintf("uexc_run_verdicts_total{verdict=%q}", v)] = fmt.Sprint(n)
	}
	for name, t := range snap.Tenants {
		lines[fmt.Sprintf("uexc_tenant_queued{tenant=%q}", name)] = fmt.Sprint(t.Queued)
		lines[fmt.Sprintf("uexc_tenant_running{tenant=%q}", name)] = fmt.Sprint(t.Running)
		lines[fmt.Sprintf("uexc_tenant_admitted_total{tenant=%q}", name)] = fmt.Sprint(t.Admitted)
		lines[fmt.Sprintf("uexc_tenant_rejected_total{tenant=%q}", name)] = fmt.Sprint(t.Rejected)
	}
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s\n", k, lines[k])
	}
}

// renderJSON writes the snapshot as indented JSON.
func (snap Snapshot) renderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
