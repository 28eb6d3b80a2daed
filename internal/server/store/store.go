// Package store is the serving layer's durable job store: an
// append-only write-ahead journal that makes admitted jobs survive a
// process kill (DESIGN.md §12).
//
// The journal is NDJSON — one Record per line — with four record
// kinds, written strictly append-only:
//
//	restart            a resumed process opened this journal
//	accept             a job was admitted (its request spec, verbatim)
//	shard              one merged shard's digest, in prefix order per job
//	finish             the job's terminal verdict and summary
//
// Replay ignores any other kind, such as the "dispatch" and "ack"
// records older fleet coordinators wrote.
//
// Durability is group commit (DESIGN.md §12): an append only buffers,
// and one sync loop per open store flushes under the store's lock and
// fsyncs outside it, so one fsync covers every record appended before
// it and no appender waits on the disk. AcceptJob and FinishJob return
// once an fsync covers their record; a shard digest is durable with the
// next round, and losing it to a kill costs only its recomputation.
// Records are appended in merge order, so every durable prefix of the
// file holds a contiguous shard prefix per job.
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
	T       string          `json:"t"` // "restart" | "accept" | "shard" | "finish"
	Job     uint64          `json:"job,omitempty"`
	Index   int             `json:"i,omitempty"`    // shard: its index in the merged prefix
	Req     json.RawMessage `json:"req,omitempty"`  // accept: the client's request spec
	Data    json.RawMessage `json:"data,omitempty"` // shard: the engine's shard digest
	OK      bool            `json:"ok,omitempty"`   // finish: verdict
	Summary string          `json:"summary,omitempty"`
	Error   string          `json:"error,omitempty"`
	Tenant  string          `json:"tenant,omitempty"` // accept: admission tenant
}

// PendingJob is one job the journal shows admitted but not finished:
// exactly what a resuming server must re-run, together with the
// durable contiguous shard prefix it can skip.
type PendingJob struct {
	ID     uint64
	Req    json.RawMessage
	Shards []json.RawMessage // digests for shards [0, len(Shards)), in order
	Tenant string            // admission tenant (empty: default)
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
	// SyncDelay, when non-nil, runs before every fsync, outside the
	// store's lock — the chaos harness's slow-fsync injection point.
	SyncDelay func()
}

// Stats counts journal traffic for /metrics.
type Stats struct {
	Appends     uint64 // records appended
	Syncs       uint64 // fsyncs completed
	Checkpoints uint64 // fsyncs that made at least one shard digest durable
	Lost        uint64 // appends dropped because the store was closed
	Synced      uint64 // appended records the last completed fsync covers
}

// Store is an open journal. All methods are safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	cond      sync.Cond // on mu: wakes the sync loop and the callers waiting on it
	f         *os.File
	w         *bufio.Writer
	opts      Options
	shards    bool  // a shard record was appended since the last flush
	closed    bool  // no more appends
	abandoned bool  // the buffer is dropped, the loop stops
	err       error // the first flush or fsync error, sticky
	stats     Stats
	loopDone  chan struct{}
}

// Open opens (creating if needed) the journal under dir, replays it,
// compacts it down to the live jobs, and returns the store plus the
// recovered state. If the journal already existed, a restart record is
// appended — the store's own count of process incarnations.
func Open(dir string, opts Options) (*Store, *State, error) {
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

	if err := compact(path, st); err != nil {
		return nil, nil, fmt.Errorf("job store: compact: %w", err)
	}
	syncDir(dir)

	jf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("job store: %w", err)
	}
	s := &Store{f: jf, w: bufio.NewWriter(jf), opts: opts, loopDone: make(chan struct{})}
	s.cond.L = &s.mu
	go s.syncLoop()
	return s, st, nil
}

// compact rewrites the journal at path down to st's live records (plus
// the accumulated restart count), atomically: a fresh file is written,
// fsynced and renamed over the old one.
func compact(path string, st *State) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := uint64(0); i < st.Restarts && err == nil; i++ {
		// The first restart record carries the highest job ID the old
		// journal ever allocated: compaction drops finished jobs, and
		// without this the ID floor would regress on reopen and a fresh
		// job could reuse a finished job's ID.
		r := Record{T: "restart"}
		if i == 0 {
			r.Job = st.MaxID
		}
		err = enc.Encode(r)
	}
	for _, p := range st.Pending {
		if err == nil {
			err = enc.Encode(Record{T: "accept", Job: p.ID, Req: p.Req, Tenant: p.Tenant})
		}
		for i, d := range p.Shards {
			if err == nil {
				err = enc.Encode(Record{T: "shard", Job: p.ID, Index: i, Data: d})
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	return err
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
		}
	}
	for _, id := range order {
		j := jobs[id]
		if j.finished {
			st.FinishedJobs++
			continue
		}
		st.Pending = append(st.Pending, PendingJob{ID: id, Req: j.req, Shards: j.shards, Tenant: j.tenant})
		st.ResumedShards += len(j.shards)
	}
	return st, true, nil
}

// append buffers one record and returns its sequence number, counting
// from the store's open.
func (s *Store) append(r Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.Lost++
		return 0, ErrClosed
	}
	if s.err != nil {
		return 0, s.err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return 0, fmt.Errorf("job store: %w", err)
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		s.err = fmt.Errorf("job store: append: %w", err)
		return 0, s.err
	}
	s.stats.Appends++
	s.shards = s.shards || r.T == "shard"
	s.cond.Broadcast()
	return s.stats.Appends, nil
}

// appendDurable appends one record and waits for an fsync that covers
// it.
func (s *Store) appendDurable(r Record) error {
	seq, err := s.append(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.stats.Synced < seq && s.err == nil && !s.abandoned {
		s.cond.Wait()
	}
	switch {
	case s.stats.Synced >= seq:
		return nil
	case s.err != nil:
		return s.err
	}
	return ErrClosed
}

// syncLoop is the store's only flusher and fsync issuer. Each round
// flushes every buffered record under s.mu and fsyncs outside it, so
// appends go on while the disk works and the next round covers them
// all. It exits on Abandon, on the first error, or once Close has
// nothing left to sync.
func (s *Store) syncLoop() {
	defer close(s.loopDone)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && s.err == nil && s.stats.Synced == s.stats.Appends {
			s.cond.Wait()
		}
		if s.abandoned || s.err != nil || s.stats.Synced == s.stats.Appends {
			return
		}
		upTo, shards := s.stats.Appends, s.shards
		s.shards = false
		err := s.w.Flush()
		s.mu.Unlock()
		if err == nil {
			if s.opts.SyncDelay != nil {
				s.opts.SyncDelay()
			}
			err = s.f.Sync()
		}
		s.mu.Lock()
		if s.abandoned {
			return
		}
		if err != nil {
			s.err = fmt.Errorf("job store: sync: %w", err)
			s.cond.Broadcast()
			return
		}
		s.stats.Synced = upTo
		s.stats.Syncs++
		if shards {
			s.stats.Checkpoints++
		}
		s.cond.Broadcast()
	}
}

// AcceptJob journals an admission and returns once it is durable: an
// acknowledged job must survive a kill. The tenant rides along so a
// resumed job stays attributed to its quota owner (without re-charging
// the admission token — that was spent in the first life).
func (s *Store) AcceptJob(id uint64, req json.RawMessage, tenant string) error {
	return s.appendDurable(Record{T: "accept", Job: id, Req: req, Tenant: tenant})
}

// AppendShard journals one merged shard digest. It only buffers: the
// sync loop makes the digest durable with its next round, and losing
// it to a kill first only costs recomputation. Each job's shards must
// be appended in index order.
func (s *Store) AppendShard(id uint64, index int, data json.RawMessage) error {
	_, err := s.append(Record{T: "shard", Job: id, Index: index, Data: data})
	return err
}

// FinishJob journals the terminal verdict and returns once it is
// durable.
func (s *Store) FinishJob(id uint64, ok bool, summary, errText string) error {
	return s.appendDurable(Record{T: "finish", Job: id, OK: ok, Summary: summary, Error: errText})
}

// Stats snapshots journal traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close waits for the sync loop's last round, then closes the journal
// (the graceful path). It returns the store's sticky error, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.loopDone
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.err
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the journal WITHOUT flushing the buffered tail —
// exactly what SIGKILL does to the real process. The chaos harness
// uses it to make in-process kills lose the same writes a real kill
// would; subsequent appends fail with ErrClosed and count as Lost, and
// callers waiting on an fsync get ErrClosed.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed, s.abandoned = true, true
	s.cond.Broadcast()
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
