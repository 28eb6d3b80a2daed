// Coordinator mode (DESIGN.md §13): with Config.WorkerNodes set, this
// server splits every sweep job's shard space into ranges, dispatches
// them to worker nodes over the ordinary HTTP/NDJSON job API (each
// worker runs the unchanged sweep via a shard-range job),
// and merges the streamed digests strictly by shard index — the same
// §8 frontier a local sweep advances — so the distributed stream,
// summary, and fingerprints are byte-identical to a serial single-node
// run. Failure handling rides the §12 machinery: a failed range is
// requeued immediately for any surviving worker (the failing node
// backs off, then quarantines), merged digests checkpoint through the
// durable store under the usual cadence, dispatch/ack records journal
// the fleet's promises, and a killed coordinator resumes from its
// merge frontier.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uexc/internal/sweep"
)

// fleet is the coordinator's worker set, shared by every distributed
// job on this server.
type fleet struct {
	s     *Server
	nodes []*fleetNode
}

func newFleet(s *Server, urls []string) *fleet {
	f := &fleet{s: s}
	for _, u := range urls {
		f.nodes = append(f.nodes, &fleetNode{
			url:    strings.TrimRight(u, "/"),
			client: &http.Client{},
		})
	}
	return f
}

// fleetNode is one worker: its base URL, a reusable client, and the
// failure state that drives backoff and quarantine.
type fleetNode struct {
	url    string
	client *http.Client

	mu         sync.Mutex
	failures   int       // consecutive dispatch failures
	quietUntil time.Time // back off / quarantine expiry
}

// ok resets the failure streak after a successful dispatch.
func (n *fleetNode) ok() {
	n.mu.Lock()
	n.failures = 0
	n.mu.Unlock()
}

// fail records one dispatch failure: the first earns the §12 retry
// backoff (deterministically jittered), repeat offenders are
// quarantined for the full cooldown so a dead worker cannot burn range
// attempts at connection-refused speed.
func (n *fleetNode) fail(base, quarantine time.Duration, m *metrics, jobID uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failures++
	d := retryBackoff(base, n.failures, jobID, 0)
	if n.failures >= 2 {
		d = quarantine
		m.WorkersQuarantined.Add(1)
	}
	n.quietUntil = time.Now().Add(d)
}

// quietFor returns how much longer the node must stay benched.
func (n *fleetNode) quietFor() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d := time.Until(n.quietUntil); d > 0 {
		return d
	}
	return 0
}

// fleetRange is one dispatch unit: shard indices [from, to), how many
// times the fleet has tried to place it, and which nodes have failed
// it. Exactly one goroutine holds a given range at a time, so the
// failed set needs no lock.
type fleetRange struct {
	from, to int
	attempt  int
	failed   map[string]bool // node URL → has failed this range
}

// fleetMerge is the coordinator's §8 frontier over remote digests:
// shards arrive from any worker in any order, merge strictly by index,
// re-render the exact progress lines a local run would stream, and
// checkpoint through the durable store at the usual cadence. Duplicate
// deliveries (a re-dispatched range overlapping its first, partial
// life) fall below the frontier and are ignored — digests are
// deterministic, so the first copy was already the right bytes.
type fleetMerge struct {
	mu        sync.Mutex
	fj        *fleetJob
	next      int
	lastSaved int
	every     int
	digests   []json.RawMessage
	pending   map[int]json.RawMessage
	render    func(i int, data json.RawMessage) (string, error) // nil unless Verbose
	save      func(prefix []json.RawMessage) error              // nil without store
	err       error                                             // sticky render/save failure
}

// merge accepts shard i's digest. A render or checkpoint failure is
// the job's failure, not the delivering worker's: it sticks and
// cancels the whole dispatch.
func (m *fleetMerge) merge(i int, data json.RawMessage) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || i < m.next {
		return
	}
	m.pending[i] = data
	for {
		d, ok := m.pending[m.next]
		if !ok {
			break
		}
		delete(m.pending, m.next)
		m.digests[m.next] = d
		if m.render != nil {
			line, err := m.render(m.next, d)
			if err != nil {
				m.failLocked(err)
				return
			}
			m.fj.j.emit(Event{Type: "progress", Line: line})
		}
		m.next++
	}
	if m.save != nil && m.next-m.lastSaved >= m.every {
		if err := m.save(m.digests[:m.next]); err != nil {
			m.failLocked(err)
			return
		}
		m.lastSaved = m.next
	}
}

// finish forces the final checkpoint once the frontier is complete.
func (m *fleetMerge) finish() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil && m.save != nil && m.lastSaved < m.next {
		m.err = m.save(m.digests[:m.next])
		if m.err == nil {
			m.lastSaved = m.next
		}
	}
	return m.err
}

func (m *fleetMerge) failLocked(err error) {
	m.err = err
	m.fj.cancel()
}

func (m *fleetMerge) stickyErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// fleetJob is one distributed job's dispatch state.
type fleetJob struct {
	j           *job
	merge       *fleetMerge
	work        chan fleetRange
	done        chan struct{} // closed when every range is acked
	ctx         context.Context
	cancel      context.CancelFunc
	remaining   atomic.Int64
	maxAttempts int

	failMu  sync.Mutex
	failErr error
}

// fatal records the first unrecoverable error and stops the dispatch.
func (fj *fleetJob) fatal(err error) {
	fj.failMu.Lock()
	if fj.failErr == nil {
		fj.failErr = err
	}
	fj.failMu.Unlock()
	fj.cancel()
}

func (fj *fleetJob) fatalErr() error {
	fj.failMu.Lock()
	defer fj.failMu.Unlock()
	return fj.failErr
}

// rangeDone retires one acked range.
func (fj *fleetJob) rangeDone() {
	if fj.remaining.Add(-1) == 0 {
		close(fj.done)
	}
}

// runDistributed executes a sweep job across the fleet: dispatch
// phase (ranges stream back and merge into the frontier), then the
// sweep's Fold over the complete digest prefix, which re-derives the
// summary and result exactly as a local run would, executing nothing.
func (s *Server) runDistributed(j *job, sw sweep.Kind) (bool, string, error) {
	space := j.req.ShardSpace()

	var render func(i int, data json.RawMessage) (string, error)
	if j.req.Verbose {
		render = func(i int, data json.RawMessage) (string, error) { return sw.Line(j.req.Seeds, i, data) }
	}

	dctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	fj := &fleetJob{
		j: j, done: make(chan struct{}),
		ctx: dctx, cancel: cancel,
		maxAttempts: max(s.cfg.ShardAttempts, len(s.fleet.nodes)+1),
	}
	m := &fleetMerge{
		fj:      fj,
		next:    j.resumed,
		every:   s.cfg.CheckpointEvery,
		digests: make([]json.RawMessage, space),
		pending: map[int]json.RawMessage{},
		render:  render,
		save:    s.checkpoint(j),
	}
	m.lastSaved = m.next
	copy(m.digests, j.done)
	fj.merge = m

	// Replay the durable prefix's progress lines, exactly as a local
	// resume does, so the resumed stream stays byte-identical.
	if render != nil {
		for i := 0; i < m.next; i++ {
			line, err := render(i, m.digests[i])
			if err != nil {
				return false, "", err
			}
			j.emit(Event{Type: "progress", Line: line})
		}
	}

	// Dispatch everything past the merge frontier in DispatchShards
	// chunks. The work channel holds every range at once (requeues
	// reuse the slot their failed dispatch freed), so sends never block.
	var ranges []fleetRange
	for from := m.next; from < space; from += s.cfg.DispatchShards {
		to := from + s.cfg.DispatchShards
		if to > space {
			to = space
		}
		ranges = append(ranges, fleetRange{from: from, to: to})
	}
	if len(ranges) > 0 {
		fj.work = make(chan fleetRange, len(ranges))
		fj.remaining.Store(int64(len(ranges)))
		for _, rg := range ranges {
			fj.work <- rg
		}
		for _, n := range s.fleet.nodes {
			go s.fleet.dispatcher(fj, n)
		}
		select {
		case <-fj.done:
		case <-dctx.Done():
		}
		if err := m.stickyErr(); err != nil {
			return false, "", err
		}
		if err := fj.fatalErr(); err != nil {
			return false, "", err
		}
		if err := j.ctx.Err(); err != nil {
			return false, "", fmt.Errorf("distributed %s aborted: %w", j.req.Type, err)
		}
	}
	if err := m.finish(); err != nil {
		return false, "", err
	}

	res, err := sw.Fold(j.req.Seeds, m.digests)
	if err != nil {
		return false, "", err
	}
	return s.sweepVerdict(res)
}

// dispatcher is one worker node's pull loop: take a range, stream it,
// and on failure requeue the range immediately — any free node,
// usually a survivor, picks it up next — while this node backs off (or
// sits out its quarantine). The fleet's poison verdict requires both
// an exhausted attempt budget and a failure from every node: a dead
// node whose dispatcher is the only free one (the survivors are deep
// in long ranges) can burn attempts at quarantine cadence, and those
// must never fail a range a busy healthy node has not even seen.
func (f *fleet) dispatcher(fj *fleetJob, n *fleetNode) {
	for {
		if q := n.quietFor(); q > 0 {
			sleepOrCancel(fj.ctx, q)
		}
		select {
		case <-fj.ctx.Done():
			return
		case <-fj.done:
			return
		case rg := <-fj.work:
			err := f.dispatch(fj, n, rg)
			if err == nil {
				n.ok()
				fj.rangeDone()
				continue
			}
			if fj.ctx.Err() != nil {
				return // job died mid-dispatch; not the node's fault
			}
			n.fail(f.s.cfg.ShardBackoff, f.s.cfg.WorkerQuarantine, f.s.metrics, fj.j.id)
			rg.attempt++
			if rg.failed == nil {
				rg.failed = make(map[string]bool, len(f.nodes))
			}
			rg.failed[n.url] = true
			if rg.attempt >= fj.maxAttempts && len(rg.failed) >= len(f.nodes) {
				fj.fatal(&ShardError{Job: fj.j.id, Shard: rg.from, Attempts: rg.attempt, Err: err})
				return
			}
			f.s.metrics.FleetRedispatches.Add(1)
			fj.work <- rg
		}
	}
}

// dispatch sends one shard range to one worker as an ordinary job and
// consumes its NDJSON stream, merging shard digests as they arrive.
// The range is acked — durably, via the journal — only if every index
// of [from, to) arrived in order, the result verdict was ok, and the
// integrity trailer verified; anything less is a failed dispatch whose
// already-merged shards the duplicate-tolerant frontier keeps for
// free.
func (f *fleet) dispatch(fj *fleetJob, n *fleetNode, rg fleetRange) error {
	s := f.s
	if s.store != nil {
		_ = s.store.AppendDispatch(fj.j.id, rg.from, rg.to, n.url)
	}
	s.metrics.FleetDispatches.Add(1)

	req := fj.j.req
	req.Verbose = false
	req.ShardFrom, req.ShardTo = rg.from, rg.to
	req.TimeoutMS = int64(s.cfg.DispatchTimeout / time.Millisecond)
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(fj.ctx, s.cfg.DispatchTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+"/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Tenant", fj.j.tenant)
	resp, err := n.client.Do(hreq)
	if err != nil {
		return fmt.Errorf("worker %s: %w", n.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("worker %s: status %d: %s", n.url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	want := rg.from
	h := fnv.New64a()
	records := 0
	var sawResult, resultOK, sawTrailer bool
	var resultErr string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("worker %s: malformed event: %w", n.url, err)
		}
		if ev.Type == "trailer" {
			if ev.Records != records {
				return fmt.Errorf("worker %s: trailer counts %d records, saw %d", n.url, ev.Records, records)
			}
			if fp := fmt.Sprintf("%016x", h.Sum64()); ev.FNV != fp {
				return fmt.Errorf("worker %s: stream fingerprint mismatch (trailer %s, computed %s)", n.url, ev.FNV, fp)
			}
			sawTrailer = true
			break
		}
		h.Write(line)
		h.Write([]byte{'\n'})
		records++
		switch ev.Type {
		case "shard":
			if ev.Shard == nil || len(ev.Data) == 0 {
				return fmt.Errorf("worker %s: shard event without index or digest", n.url)
			}
			if *ev.Shard != want {
				return fmt.Errorf("worker %s: shard events out of order (got %d, want %d)", n.url, *ev.Shard, want)
			}
			fj.merge.merge(*ev.Shard, ev.Data)
			want++
		case "result":
			sawResult = true
			if ev.OK != nil {
				resultOK = *ev.OK
			}
			resultErr = ev.Error
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("worker %s: stream: %w", n.url, err)
	}
	if !sawTrailer {
		return fmt.Errorf("worker %s: stream ended without an integrity trailer", n.url)
	}
	if !sawResult || !resultOK {
		return fmt.Errorf("worker %s: range [%d,%d) failed: %s", n.url, rg.from, rg.to, resultErr)
	}
	if want != rg.to {
		return fmt.Errorf("worker %s: range [%d,%d) delivered only [%d,%d)", n.url, rg.from, rg.to, rg.from, want)
	}
	if s.store != nil {
		_ = s.store.AppendAck(fj.j.id, rg.from, rg.to, n.url)
	}
	s.metrics.FleetAcks.Add(1)
	return nil
}
