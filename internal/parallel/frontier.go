package parallel

import (
	"context"
	"fmt"
	"sync"
)

// ShardRunner wraps the execution of one shard. The driver calls it
// with the shard index and a run closure that performs the shard's
// work; the runner calls run once on success (it may call it again,
// e.g. to retry a shard whose previous attempt panicked), panics with
// a typed error to quarantine a shard that keeps failing, or — only
// when the sweep's context is already dead — returns without ever
// calling run. A shard whose run never executed never reaches the
// frontier, so a give-up cannot advance the merged prefix (or the
// journal's copy of it) over a result that was never computed. Runners are
// how the serving layer attaches per-shard deadlines, bounded retries,
// and chaos-injected faults without the engines knowing: the engine
// sees only "the shard ran".
type ShardRunner func(i int, run func())

// Frontier is the §8 merge frontier: Run executes the shards [start,
// n) on local workers, whose results arrive in any order, each index
// exactly once, and leave as one in-order stream. It tracks the
// contiguous merged prefix; each index the prefix advances over goes
// to the merged callback, in order, never concurrently. Results that
// arrive early wait in a pending set until the prefix reaches them.
//
// The first error merged returns sticks: the prefix stops below the
// index that failed, and every later add and finish returns the error.
type Frontier[T any] struct {
	mu      sync.Mutex
	next    int // first index not yet merged
	n       int
	pending map[int]T
	merged  func(i int, t T) error
	err     error
}

// NewFrontier returns a frontier whose prefix already covers [0,
// start) — a resumed run's durable prefix — and ends at n.
func NewFrontier[T any](start, n int, merged func(i int, t T) error) *Frontier[T] {
	return &Frontier[T]{next: start, n: n, pending: map[int]T{}, merged: merged}
}

// add accepts index i's result. Run adds each index of [start, n)
// exactly once.
func (f *Frontier[T]) add(i int, t T) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	f.pending[i] = t
	for f.err == nil {
		t, ok := f.pending[f.next]
		if !ok {
			break
		}
		delete(f.pending, f.next)
		if f.err = f.merged(f.next, t); f.err == nil {
			f.next++
		}
	}
	return f.err
}

// finish fails if the prefix does not cover every index below n.
func (f *Frontier[T]) finish() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil && f.next < f.n {
		return fmt.Errorf("merge frontier stopped at shard %d of %d", f.next, f.n)
	}
	return f.err
}

// fail records err as the frontier's sticky error unless one is set.
func (f *Frontier[T]) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// stuck returns the sticky error.
func (f *Frontier[T]) stuck() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Run is the sweep driver. It executes every shard the frontier still
// lacks across workers (normalized via Workers), each through runner
// (nil calls it directly), adds each result, and finishes. The first
// shard or merge error cancels the sweep and is returned; otherwise a
// cut-short sweep returns ctx's error. Any non-nil error means the
// merged prefix is all that is valid.
func (f *Frontier[T]) Run(ctx context.Context, workers int, runner ShardRunner, shard func(i int) (T, error)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.mu.Lock()
	start := f.next
	f.mu.Unlock()
	err := ForEachCtx(ctx, workers, f.n-start, func(rel int) {
		i := start + rel
		var (
			t    T
			serr error
			ran  bool
		)
		run := func() { t, serr = shard(i); ran = true }
		if runner == nil {
			run()
		} else {
			runner(i, run)
		}
		if !ran {
			return // the runner gave up on a dead sweep
		}
		if serr == nil {
			serr = f.add(i, t)
		}
		if serr != nil {
			f.fail(serr)
			cancel()
		}
	})
	if serr := f.stuck(); serr != nil {
		return serr
	}
	if err != nil {
		return err
	}
	return f.finish()
}
