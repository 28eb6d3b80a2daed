package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"uexc/internal/core"
	"uexc/internal/verdict"
)

// Counters is every monotonic server counter, declared once: each
// field's JSON tag is its /metrics name, and the text exposition
// derives from that encoding (renderText). A new scalar counter is one
// field here.
type Counters struct {
	Admitted         uint64 `json:"jobs_admitted_total"`          // jobs accepted into the queue
	RejectedFull     uint64 `json:"jobs_rejected_full_total"`     // 429: queue at capacity
	RejectedDraining uint64 `json:"jobs_rejected_draining_total"` // 503: drain in progress
	RejectedTenant   uint64 `json:"jobs_rejected_tenant_total"`   // 429: a tenant quota said no
	BadRequests      uint64 `json:"bad_requests_total"`           // 4xx: malformed or invalid job specs or X-Tenant headers

	JobsOK        uint64 `json:"jobs_ok_total"`        // completed with ok=true
	JobsFailed    uint64 `json:"jobs_failed_total"`    // completed with ok=false (engine failure)
	JobsCancelled uint64 `json:"jobs_cancelled_total"` // aborted by deadline or client disconnect
	JobsEvicted   uint64 `json:"jobs_evicted_total"`   // finished jobs dropped after the retention window

	// Debug-session lifecycle (DESIGN.md §16): started sessions, and
	// finished session records dropped after the retention window — the
	// same eviction rule finished jobs follow.
	SessionsStarted uint64 `json:"sessions_started_total"`
	SessionsEvicted uint64 `json:"sessions_evicted_total"`

	// Durability counters (DESIGN.md §12). The journal's own four are
	// the store's (store.Stats), copied in by snapshot.
	Restarts       uint64 `json:"restarts_total"`        // journal restart records (process incarnations)
	ReplayedJobs   uint64 `json:"jobs_replayed_total"`   // pending jobs re-admitted from the journal
	ResumedShards  uint64 `json:"shards_resumed_total"`  // durable shards skipped on resume
	Checkpoints    uint64 `json:"checkpoints_total"`     // journal fsyncs that made a shard digest durable
	ShardRetries   uint64 `json:"shard_retries_total"`   // shard attempts after a failure
	ShardsPoisoned uint64 `json:"shards_poisoned_total"` // shards quarantined after the last retry
	ShardStalls    uint64 `json:"shard_stalls_total"`    // injected shard stalls observed
	ShardTimeouts  uint64 `json:"shard_timeouts_total"`  // shard attempts at or past the deadline
	JournalAppends uint64 `json:"journal_appends_total"`
	JournalSyncs   uint64 `json:"journal_syncs_total"`
	JournalLost    uint64 `json:"journal_lost_total"`

	// Simulator counters, harvested at machine Put time.
	SimFastDeliveries uint64 `json:"sim_fast_deliveries_total"` // exceptions vectored to user handlers by the fast path
	SimUnixDeliveries uint64 `json:"sim_unix_deliveries_total"` // signals delivered via the Ultrix path
	SimExceptions     uint64 `json:"sim_exceptions_total"`      // every exception the CPU raised (all causes)
	SimTLBHits        uint64 `json:"sim_tlb_hits_total"`
	SimTLBMisses      uint64 `json:"sim_tlb_misses_total"`
	SimFastPathHits   uint64 `json:"sim_fastpath_hits_total"` // interpreter micro-TLB fast-path hits
	SimInsts          uint64 `json:"sim_insts_total"`
	SimCycles         uint64 `json:"sim_cycles_total"`

	// Translation-tier counters (cpu/translate.go). Like the fast-path
	// hits they are purely diagnostic — never part of a run fingerprint.
	SimJITBlocks        uint64 `json:"sim_jit_blocks_compiled_total"` // basic blocks compiled
	SimJITExecs         uint64 `json:"sim_jit_block_execs_total"`     // block entries that retired at least one instruction
	SimJITGuardMisses   uint64 `json:"sim_jit_guard_misses_total"`    // block entries rejected by a non-generation guard
	SimJITInvalidations uint64 `json:"sim_jit_invalidations_total"`   // block entries rejected by a moved page generation
}

// metrics is the server's counter state — the Counters, the in-flight
// gauge, admissions by job type, and the run-verdict tally — behind one
// leaf mutex, so a snapshot reads it as one consistent cut.
type metrics struct {
	mu sync.Mutex
	Counters
	inFlight int64           // jobs currently executing on a worker
	byType   map[Type]uint64 // admitted jobs by type
	// verdicts counts campaign runs by typed classification
	// (DESIGN.md §14), folded from every completed campaign/difftest
	// job's result.
	verdicts verdict.Counts
}

// add applies one update under the lock. f must not take another lock:
// the metrics lock is a leaf.
func (m *metrics) add(f func(m *metrics)) {
	m.mu.Lock()
	f(m)
	m.mu.Unlock()
}

// harvest accumulates one finished run's simulator counters. Installed
// as the machine pool's Harvest hook, so it observes the machine after
// the run and before the next checkout's restore wipes it.
func (m *metrics) harvest(mach *core.Machine) {
	mc := mach.Counters()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.SimFastDeliveries += mc.FastDeliveries
	m.SimUnixDeliveries += mc.UnixDeliveries
	m.SimExceptions += mc.Exceptions()
	m.SimTLBHits += mc.TLBHits
	m.SimTLBMisses += mc.TLBMisses
	m.SimFastPathHits += mc.FastHits
	m.SimInsts += mc.Insts
	m.SimCycles += mc.Cycles
	m.SimJITBlocks += mc.JITBlocks
	m.SimJITExecs += mc.JITExecs
	m.SimJITGuardMisses += mc.JITGuardMisses
	m.SimJITInvalidations += mc.JITInvalidations
}

// Snapshot is what /metrics renders and clients decode: the Counters
// as one consistent cut, plus the gauges and the labelled families.
type Snapshot struct {
	QueueDepth     int   `json:"queue_depth"`
	QueueCapacity  int   `json:"queue_capacity"`
	InFlight       int64 `json:"inflight_jobs"`
	Draining       bool  `json:"draining"`
	SessionsActive int   `json:"sessions_active"`
	StoreEnabled   bool  `json:"store_enabled"`

	Counters

	JobsByType map[string]uint64 `json:"jobs_by_type"`

	// Verdicts is the cumulative run-classification tally across every
	// completed campaign and difftest job (DESIGN.md §14).
	Verdicts map[string]uint64 `json:"run_verdicts"`

	// Tenants is per-tenant admission state; present once a tenant has
	// been seen.
	Tenants map[string]TenantSnapshot `json:"tenants,omitempty"`

	Pool        core.PoolStats `json:"machine_pool"`
	PoolHitRate float64        `json:"machine_pool_hit_rate"`
}

// snapshot copies the counters under their lock, then fills in the
// gauges and the queue, pool, tenant and journal state the server owns.
func (s *Server) snapshot() Snapshot {
	m := s.metrics
	snap := Snapshot{
		JobsByType: make(map[string]uint64, len(Types)),
		Verdicts:   make(map[string]uint64, verdict.NumKinds),
	}
	m.mu.Lock()
	snap.Counters, snap.InFlight = m.Counters, m.inFlight
	for _, t := range Types {
		snap.JobsByType[string(t)] = m.byType[t]
	}
	for k, n := range m.verdicts {
		snap.Verdicts[verdict.Kind(k).String()] = uint64(n)
	}
	m.mu.Unlock()

	snap.QueueDepth, snap.QueueCapacity = len(s.queue), cap(s.queue)
	snap.Draining = s.isDraining()
	snap.SessionsActive = s.sessionCount()
	snap.StoreEnabled = s.store != nil
	snap.Tenants = s.tenants.snapshot()
	snap.Pool = s.pool.Stats()
	if s.store != nil {
		jst := s.store.Stats()
		snap.JournalAppends, snap.JournalSyncs, snap.JournalLost = jst.Appends, jst.Syncs, jst.Lost
		snap.Checkpoints = jst.Checkpoints
	}
	if snap.Pool.Gets > 0 {
		// A checkout served by restoring a pooled machine is a hit; a
		// fork onto fresh hardware is a miss.
		snap.PoolHitRate = float64(snap.Pool.Restores) / float64(snap.Pool.Gets)
	}
	return snap
}

// families names the text lines of the structured top-level JSON keys:
// each maps one leaf under its key (the leaf's path below the key and
// its rendered value) to a line, or to "" to leave the leaf out. A new
// labelled family is one Snapshot field plus one row.
var families = map[string]func(path []string, v string) (name, value string){
	"machine_pool": func(p []string, v string) (string, string) {
		return "uexc_pool_" + strings.ToLower(p[0]) + "_total", v
	},
	"machine_pool_hit_rate": func(_ []string, v string) (string, string) {
		r, _ := strconv.ParseFloat(v, 64)
		return "uexc_pool_hit_rate", fmt.Sprintf("%.4f", r)
	},
	"jobs_by_type": func(p []string, v string) (string, string) {
		return fmt.Sprintf("uexc_jobs_admitted_by_type_total{type=%q}", p[0]), v
	},
	"run_verdicts": func(p []string, v string) (string, string) {
		return fmt.Sprintf("uexc_run_verdicts_total{verdict=%q}", p[0]), v
	},
	"tenants": func(p []string, v string) (string, string) {
		if p[1] == "tokens" { // a time-dependent balance, JSON only
			return "", ""
		}
		return fmt.Sprintf("uexc_tenant_%s{tenant=%q}", p[1], p[0]), v
	},
}

// renderText writes the snapshot in the flat `name value` exposition
// format (Prometheus-style, one line per value, names sorted), derived
// from the JSON encoding: every scalar top-level key k renders as
// uexc_k, booleans as 0/1, and the structured keys through families.
func (snap Snapshot) renderText(w io.Writer) error {
	b, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var tree map[string]any
	if err := dec.Decode(&tree); err != nil {
		return err
	}
	var lines []string
	for key, v := range tree {
		family := families[key]
		if family == nil {
			family = func(_ []string, v string) (string, string) { return "uexc_" + key, v }
		}
		leaves(nil, v, func(path []string, v string) {
			if name, value := family(path, v); name != "" {
				lines = append(lines, name+" "+value)
			}
		})
	}
	// A space sorts below every name byte, so sorting the lines sorts
	// them by name.
	sort.Strings(lines)
	_, err = io.WriteString(w, strings.Join(lines, "\n")+"\n")
	return err
}

// leaves calls f with the path and text of every scalar under a
// decoded JSON value, booleans as 0/1.
func leaves(path []string, v any, f func(path []string, v string)) {
	switch v := v.(type) {
	case map[string]any:
		for k, sub := range v {
			leaves(append(path[:len(path):len(path)], k), sub, f)
		}
	case bool:
		f(path, map[bool]string{false: "0", true: "1"}[v])
	default:
		f(path, fmt.Sprint(v))
	}
}

// renderJSON writes the snapshot as indented JSON.
func (snap Snapshot) renderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
