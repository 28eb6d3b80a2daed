// Coordinator mode (DESIGN.md §13): with Config.WorkerNodes set, this
// server splits every sweep job's shard space into ranges, dispatches
// them to worker nodes over the ordinary HTTP/NDJSON job API (each
// worker runs the unchanged sweep via a shard-range job),
// and merges the streamed digests through the sweep's own merge — the
// same §8 frontier a local sweep advances — so the distributed stream,
// summary, and fingerprints are byte-identical to a serial single-node
// run. Failure handling rides the §12 machinery: a failed range is
// requeued immediately for any surviving worker (the failing node
// backs off, then quarantines), each merged digest is journaled to the
// durable store as the merge reaches it, and a killed coordinator
// resumes from its journaled prefix.
package server

import (
	"context"
	"errors"
	"fmt"
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
		f.nodes = append(f.nodes, &fleetNode{url: strings.TrimRight(u, "/")})
	}
	return f
}

// fleetNode is one worker: its base URL and the failure state that
// drives backoff and quarantine.
type fleetNode struct {
	url string

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
		m.add(func(m *metrics) { m.WorkersQuarantined++ })
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

// fleetJob is one distributed job's dispatch state.
type fleetJob struct {
	j           *job
	merge       sweep.Merge
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
// phase (ranges stream back and merge into the sweep's frontier, which
// renders the progress lines and journals each shard exactly as a
// local run does), then the merge's Fold over the complete digest prefix, which
// re-derives the summary and result exactly as a local run would,
// executing nothing.
func (s *Server) runDistributed(j *job, sw sweep.Kind) (bool, string, error) {
	var w io.Writer
	if j.req.Verbose {
		w = progressWriter{j}
	}
	// The merge replays the durable prefix's progress lines, exactly as
	// a local resume does, so the resumed stream stays byte-identical.
	m, err := sw.Merge(sweep.Options{Seeds: j.req.Seeds, Progress: w}, j.done, s.journal(j))
	if err != nil {
		return false, "", err
	}

	// Dispatch everything past the merge frontier in DispatchShards
	// chunks. The work channel holds every range at once (requeues
	// reuse the slot their failed dispatch freed), so sends never block.
	space := j.req.ShardSpace()
	var ranges []fleetRange
	for from := j.resumed; from < space; from += s.cfg.DispatchShards {
		ranges = append(ranges, fleetRange{from: from, to: min(from+s.cfg.DispatchShards, space)})
	}
	if len(ranges) > 0 {
		dctx, cancel := context.WithCancel(j.ctx)
		defer cancel()
		fj := &fleetJob{
			j: j, merge: m, done: make(chan struct{}),
			ctx: dctx, cancel: cancel,
			work:        make(chan fleetRange, len(ranges)),
			maxAttempts: max(s.cfg.ShardAttempts, len(s.fleet.nodes)+1),
		}
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
		if err := fj.fatalErr(); err != nil {
			return false, "", err
		}
		if err := j.ctx.Err(); err != nil {
			return false, "", fmt.Errorf("distributed %s aborted: %w", j.req.Type, err)
		}
	}

	res, err := m.Fold()
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
			f.s.metrics.add(func(m *metrics) { m.FleetRedispatches++ })
			fj.work <- rg
		}
	}
}

// dispatch sends one shard range to one worker as an ordinary job and
// reads its stream through ReadEvents, merging shard digests as they
// arrive. The range is acked only if every index of [from, to) arrived
// in order and none past it, the result verdict was ok, and the
// integrity trailer verified; anything less is a failed dispatch whose
// already-merged shards the duplicate-tolerant frontier keeps for
// free.
func (f *fleet) dispatch(fj *fleetJob, n *fleetNode, rg fleetRange) error {
	s := f.s
	s.metrics.add(func(m *metrics) { m.FleetDispatches++ })

	req := fj.j.req
	req.Verbose = false
	req.ShardFrom, req.ShardTo = rg.from, rg.to
	// One range dispatch is bounded end to end by the job timeout, so a
	// hung worker cannot wedge the merge.
	req.TimeoutMS = int64(s.cfg.MaxJobTimeout / time.Millisecond)
	ctx, cancel := context.WithTimeout(fj.ctx, s.cfg.MaxJobTimeout)
	defer cancel()
	resp, err := PostJob(ctx, n.url, fj.j.tenant, req)
	if err != nil {
		return fmt.Errorf("worker %s: %w", n.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("worker %s: status %d: %s", n.url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	want := rg.from
	var result Event
	err = ReadEvents(resp.Body, func(ev Event) error {
		switch ev.Type {
		case "shard":
			if ev.Shard == nil || len(ev.Data) == 0 {
				return errors.New("shard event without index or digest")
			}
			if *ev.Shard != want {
				return fmt.Errorf("shard events out of order (got %d, want %d)", *ev.Shard, want)
			}
			if want >= rg.to {
				return fmt.Errorf("shard %d streamed past range [%d,%d)", want, rg.from, rg.to)
			}
			if err := fj.merge.Add(want, ev.Data); err != nil {
				// A corrupt digest or a failed journal append is the
				// job's failure, not the delivering worker's.
				fj.fatal(err)
				return err
			}
			want++
		case "result":
			result = ev
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("worker %s: %w", n.url, err)
	}
	if result.OK == nil || !*result.OK {
		return fmt.Errorf("worker %s: range [%d,%d) failed: %s", n.url, rg.from, rg.to, result.Error)
	}
	if want != rg.to {
		return fmt.Errorf("worker %s: range [%d,%d) delivered only [%d,%d)", n.url, rg.from, rg.to, rg.from, want)
	}
	s.metrics.add(func(m *metrics) { m.FleetAcks++ })
	return nil
}
