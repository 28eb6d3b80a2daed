// Package store is the serving layer's durable job store: an
// append-only write-ahead journal that makes admitted jobs survive a
// process kill (DESIGN.md §12).
//
// The journal is NDJSON — one Record per line — with six record
// kinds, written strictly append-only:
//
//	restart            a resumed process opened this journal
//	accept             a job was admitted (its request spec, verbatim)
//	shard              one merged shard's digest, in prefix order per job
//	finish             the job's terminal verdict and summary
//	dispatch           coordinator sent shard range [From,To) to a worker
//	ack                that range's results were fully merged
//
// Durability policy: accept, finish, and restart records are fsynced
// immediately (they are the records a crash must not lose silently —
// an acknowledged admission or completion). Shard records are batched:
// the file is fsynced after every SyncEvery appended records, so a
// kill loses at most the last batch of shard digests — which resume
// simply recomputes, since shards are deterministic.
//
// Replay tolerates a torn tail (a partial last line from a mid-write
// kill) by dropping it, and compacts on open: finished jobs' records
// are rewritten away, so the journal's size is bounded by the live
// jobs, not the store's history.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// journalName is the journal file within the store directory.
const journalName = "journal.ndjson"

// ErrClosed is returned by appends on a closed (or abandoned) store.
var ErrClosed = errors.New("job store closed")

// Record is one journal line.
type Record struct {
	T       string          `json:"t"` // "restart" | "accept" | "shard" | "finish" | "dispatch" | "ack"
	Job     uint64          `json:"job,omitempty"`
	Index   int             `json:"i,omitempty"`    // shard: its index in the merged prefix
	Req     json.RawMessage `json:"req,omitempty"`  // accept: the client's request spec
	Data    json.RawMessage `json:"data,omitempty"` // shard: the engine's shard digest
	OK      bool            `json:"ok,omitempty"`   // finish: verdict
	Summary string          `json:"summary,omitempty"`
	Error   string          `json:"error,omitempty"`
	From    int             `json:"from,omitempty"`   // dispatch/ack: range start (inclusive)
	To      int             `json:"to,omitempty"`     // dispatch/ack: range end (exclusive)
	Node    string          `json:"node,omitempty"`   // dispatch/ack: worker base URL
	Tenant  string          `json:"tenant,omitempty"` // accept: admission tenant
}

// ShardRange is a half-open dispatch range [From, To) of shard indices.
type ShardRange struct {
	From, To int
}

// PendingJob is one job the journal shows admitted but not finished:
// exactly what a resuming server must re-run, together with the
// durable contiguous shard prefix it can skip.
type PendingJob struct {
	ID      uint64
	Req     json.RawMessage
	Shards  []json.RawMessage // digests for shards [0, len(Shards)), in order
	Tenant  string            // admission tenant (empty: default)
	Unacked []ShardRange      // dispatched ranges never acked, in dispatch order
}

// State is what replay recovered from the journal.
type State struct {
	Pending       []PendingJob // jobs to resume, in admission order
	MaxID         uint64       // highest job ID ever journaled (ID allocation floor)
	Restarts      uint64       // restart records, including this open's
	FinishedJobs  int          // finish records dropped by compaction
	ResumedShards int          // total durable shards across Pending
	TornTail      bool         // a partial last line was dropped
}

// Options tunes durability.
type Options struct {
	// SyncEvery is the shard-record fsync batch size (<=0: 8).
	SyncEvery int
	// SyncDelay, when non-nil, runs before every fsync — the chaos
	// harness's slow-fsync injection point.
	SyncDelay func()
}

// Stats counts journal traffic for /metrics.
type Stats struct {
	Appends uint64 // records appended
	Syncs   uint64 // fsync batches issued
	Lost    uint64 // appends dropped because the store was closed
}

// Store is an open journal. All methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	dir      string
	opts     Options
	unsynced int
	closed   bool
	stats    Stats
}

// Open opens (creating if needed) the journal under dir, replays it,
// compacts it down to the live jobs, and returns the store plus the
// recovered state. If the journal already existed, a restart record is
// appended — the store's own count of process incarnations.
func Open(dir string, opts Options) (*Store, *State, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 8
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("job store: %w", err)
	}
	path := filepath.Join(dir, journalName)

	st, existed, err := replay(path)
	if err != nil {
		return nil, nil, err
	}
	if existed {
		st.Restarts++
	}

	// Compact: rewrite only the live records (plus the accumulated
	// restart count) into a fresh journal, atomically.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("job store: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := uint64(0); i < st.Restarts; i++ {
		// The first restart record carries the highest job ID the old
		// journal ever allocated: compaction drops finished jobs, and
		// without this the ID floor would regress on reopen and a fresh
		// job could reuse a finished job's ID.
		r := Record{T: "restart"}
		if i == 0 {
			r.Job = st.MaxID
		}
		if err := enc.Encode(r); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("job store: compact: %w", err)
		}
	}
	for _, p := range st.Pending {
		if err := enc.Encode(Record{T: "accept", Job: p.ID, Req: p.Req, Tenant: p.Tenant}); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("job store: compact: %w", err)
		}
		for i, d := range p.Shards {
			if err := enc.Encode(Record{T: "shard", Job: p.ID, Index: i, Data: d}); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("job store: compact: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("job store: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("job store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, nil, fmt.Errorf("job store: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, fmt.Errorf("job store: compact: %w", err)
	}
	syncDir(dir)

	jf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("job store: %w", err)
	}
	s := &Store{f: jf, w: bufio.NewWriter(jf), dir: dir, opts: opts}
	return s, st, nil
}

// replay reads the journal at path and reconstructs the live state.
func replay(path string) (*State, bool, error) {
	st := &State{}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return st, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("job store: replay: %w", err)
	}

	type jobState struct {
		req      json.RawMessage
		shards   []json.RawMessage
		tenant   string
		unacked  []ShardRange
		finished bool
	}
	jobs := map[uint64]*jobState{}
	var order []uint64

	lines := bytes.Split(data, []byte("\n"))
	// A journal killed mid-write ends in a partial line (no trailing
	// newline); Split then yields it as a non-empty last element.
	if n := len(lines); n > 0 && len(lines[n-1]) != 0 {
		st.TornTail = true
		lines = lines[:n-1]
	}
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			// Only the torn tail may be malformed; anything else means
			// the journal is corrupt and resuming from it would be a lie.
			return nil, false, fmt.Errorf("job store: corrupt journal record %q: %w", line, err)
		}
		if r.Job > st.MaxID {
			st.MaxID = r.Job
		}
		switch r.T {
		case "restart":
			st.Restarts++
		case "accept":
			if _, dup := jobs[r.Job]; !dup {
				jobs[r.Job] = &jobState{req: append(json.RawMessage(nil), r.Req...), tenant: r.Tenant}
				order = append(order, r.Job)
			}
		case "shard":
			j := jobs[r.Job]
			if j == nil || j.finished {
				continue
			}
			// Shards are journaled in prefix order; anything else is
			// ignored defensively rather than trusted.
			if r.Index == len(j.shards) {
				j.shards = append(j.shards, append(json.RawMessage(nil), r.Data...))
			}
		case "finish":
			if j := jobs[r.Job]; j != nil {
				j.finished = true
			}
		case "dispatch":
			if j := jobs[r.Job]; j != nil && !j.finished {
				j.unacked = append(j.unacked, ShardRange{From: r.From, To: r.To})
			}
		case "ack":
			j := jobs[r.Job]
			if j == nil {
				continue
			}
			for i, rg := range j.unacked {
				if rg.From == r.From && rg.To == r.To {
					j.unacked = append(j.unacked[:i], j.unacked[i+1:]...)
					break
				}
			}
		}
	}
	for _, id := range order {
		j := jobs[id]
		if j.finished {
			st.FinishedJobs++
			continue
		}
		st.Pending = append(st.Pending, PendingJob{
			ID: id, Req: j.req, Shards: j.shards,
			Tenant: j.tenant, Unacked: j.unacked,
		})
		st.ResumedShards += len(j.shards)
	}
	return st, true, nil
}

// append writes one record; sync forces an immediate fsync, otherwise
// the batched policy applies.
func (s *Store) append(r Record, sync bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.Lost++
		return ErrClosed
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("job store: %w", err)
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("job store: append: %w", err)
	}
	s.stats.Appends++
	s.unsynced++
	if sync || s.unsynced >= s.opts.SyncEvery {
		return s.syncLocked()
	}
	return nil
}

// syncLocked flushes and fsyncs; callers hold s.mu.
func (s *Store) syncLocked() error {
	if s.unsynced == 0 {
		return nil
	}
	if s.opts.SyncDelay != nil {
		s.opts.SyncDelay()
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("job store: flush: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("job store: fsync: %w", err)
	}
	s.unsynced = 0
	s.stats.Syncs++
	return nil
}

// AcceptJob journals an admission durably (synced before returning):
// an acknowledged job must survive a kill. The tenant rides along so a
// resumed job stays attributed to its quota owner (without re-charging
// the admission token — that was spent in the first life).
func (s *Store) AcceptJob(id uint64, req json.RawMessage, tenant string) error {
	return s.append(Record{T: "accept", Job: id, Req: req, Tenant: tenant}, true)
}

// AppendDispatch journals that the coordinator handed shard range
// [from,to) of a job to a worker node. Batched like shard records: a
// lost dispatch record only costs a redundant re-dispatch on resume,
// which the duplicate-tolerant merge absorbs. Dispatch records are not
// rewritten by compaction — a resuming coordinator re-dispatches
// everything past its merge frontier regardless.
func (s *Store) AppendDispatch(id uint64, from, to int, node string) error {
	return s.append(Record{T: "dispatch", Job: id, From: from, To: to, Node: node}, false)
}

// AppendAck journals that a dispatched range's results were fully
// merged; batched, same recovery argument as AppendDispatch.
func (s *Store) AppendAck(id uint64, from, to int, node string) error {
	return s.append(Record{T: "ack", Job: id, From: from, To: to, Node: node}, false)
}

// AppendShard journals one merged shard digest under the batched
// fsync policy; losing the tail of a batch only costs recomputation.
func (s *Store) AppendShard(id uint64, index int, data json.RawMessage) error {
	return s.append(Record{T: "shard", Job: id, Index: index, Data: data}, false)
}

// Checkpoint returns job id's checkpoint callback, whose shards
// [0, durable) are already journaled: each call appends the digests of
// prefix past the durable cursor, then Syncs — the §12 checkpoint
// boundary, so the journal's durable frontier is always a contiguous
// shard prefix. A sweep calls it serially in prefix order, so the
// cursor needs no lock.
func (s *Store) Checkpoint(id uint64, durable int) func(prefix []json.RawMessage) error {
	return func(prefix []json.RawMessage) error {
		for ; durable < len(prefix); durable++ {
			if err := s.AppendShard(id, durable, prefix[durable]); err != nil {
				return err
			}
		}
		return s.Sync()
	}
}

// FinishJob journals the terminal verdict durably.
func (s *Store) FinishJob(id uint64, ok bool, summary, errText string) error {
	return s.append(Record{T: "finish", Job: id, OK: ok, Summary: summary, Error: errText}, true)
}

// Sync forces any batched shard records to disk — the checkpoint
// boundary the engines call at every K merged shards.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.syncLocked()
}

// Stats snapshots journal traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close flushes, fsyncs, and closes the journal (the graceful path).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncLocked()
	s.closed = true
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the journal WITHOUT flushing the buffered tail —
// exactly what SIGKILL does to the real process. The chaos harness
// uses it to make in-process kills lose the same writes a real kill
// would; subsequent appends fail with ErrClosed and count as Lost.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	_ = s.f.Close()
}

// syncDir fsyncs a directory so a rename is durable; best-effort on
// platforms where directories cannot be synced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
