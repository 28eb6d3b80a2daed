// Package parallel is the work-stealing execution engine that shards
// independent simulator runs — fault-campaign seeds, per-mode cost
// measurements, figure sweep points — across worker goroutines.
//
// The design constraint is determinism: results must be identical to a
// serial run regardless of scheduling. The engine therefore separates
// execution order (arbitrary, stolen across workers) from result order
// (always the task index): Map writes each result into out[i], and
// callers merge strictly by index, never by completion time. Every
// simulated machine is self-contained (see DESIGN.md §8 for the
// shared-state audit), so the only cross-task coupling is read-only
// caches, and a run's bytes cannot depend on which worker executed it.
//
// Work distribution is index-range stealing in the Cilk tradition: the
// index space [0, n) is split into contiguous spans, one per worker.
// A worker pops single indices from the front of its own span; when
// the span is empty it steals the upper half of the largest remaining
// victim span and continues. Both operations are a single CAS on the
// span's packed (lo, hi) word, so the queue needs no locks and the
// common (no-contention) path is one atomic per task. Contiguous
// spans also keep neighbouring seeds on the same worker, which is as
// cache-friendly as this workload gets.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: zero or negative selects
// GOMAXPROCS (the engine's "use the whole machine" default).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// span is a half-open index interval [lo, hi) packed into one atomic
// uint64 (lo in the high half, hi in the low half) so that taking one
// index and stealing a block are both single CAS operations.
type span struct {
	_ [7]uint64 // pad to a cache line: spans sit in one slice
	v atomic.Uint64
}

func pack(lo, hi uint32) uint64 { return uint64(lo)<<32 | uint64(hi) }

func unpack(v uint64) (lo, hi uint32) { return uint32(v >> 32), uint32(v) }

// take pops the front index of the span.
func (s *span) take() (int, bool) {
	for {
		v := s.v.Load()
		lo, hi := unpack(v)
		if lo >= hi {
			return 0, false
		}
		if s.v.CompareAndSwap(v, pack(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// steal removes and returns the upper half of the span (at least one
// index) for a thief to adopt as its own.
func (s *span) steal() (lo, hi uint32, ok bool) {
	for {
		v := s.v.Load()
		vlo, vhi := unpack(v)
		if vlo >= vhi {
			return 0, 0, false
		}
		mid := vlo + (vhi-vlo)/2 // steal [mid, vhi): the larger half
		if s.v.CompareAndSwap(v, pack(vlo, mid)) {
			return mid, vhi, true
		}
	}
}

// ForEach runs fn(i) exactly once for every i in [0, n), sharded
// across the given number of workers (normalized via Workers). It
// returns when every call has completed. A panic in fn is re-raised
// in the caller after the remaining workers drain.
func ForEach(workers, n int, fn func(i int)) {
	_ = ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach under a context: every worker checks ctx
// before taking another index, so a cancellation or deadline stops the
// sweep after at most the tasks already in flight (one per worker)
// finish. Which task indices ran before the abort is scheduling-
// dependent, but the abort itself is deterministic for callers: a
// non-nil return means the sweep is incomplete and its results must be
// discarded, a nil return means fn ran exactly once for every index.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// The serial fast path: identical semantics, no goroutines, so
		// -parallel 1 really is the serial engine.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}

	spans := make([]span, workers)
	for w := 0; w < workers; w++ {
		// Contiguous partition; the first n%workers spans get one extra.
		lo := w*(n/workers) + min(w, n%workers)
		hi := lo + n/workers
		if w < n%workers {
			hi++
		}
		spans[w].v.Store(pack(uint32(lo), uint32(hi)))
	}

	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			for ctx.Err() == nil {
				i, ok := spans[self].take()
				if !ok {
					if !stealInto(spans, self) {
						return
					}
					continue
				}
				fn(i)
			}
		}(w)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	return ctx.Err()
}

// stealInto moves work from the largest victim span into spans[self].
// It returns false only after observing every other span empty in one
// full scan — at that point all remaining tasks are in flight on their
// owning workers and no new work can appear, so the worker may retire.
func stealInto(spans []span, self int) bool {
	victim, best := -1, uint32(0)
	for w := range spans {
		if w == self {
			continue
		}
		lo, hi := unpack(spans[w].v.Load())
		if hi > lo && hi-lo > best {
			victim, best = w, hi-lo
		}
	}
	if victim < 0 {
		return false
	}
	lo, hi, ok := spans[victim].steal()
	if !ok {
		return true // lost the race; rescan
	}
	spans[self].v.Store(pack(lo, hi))
	return true
}

// Map runs fn(i) for every i in [0, n) across workers and returns the
// results ordered by index — the deterministic-merge primitive: out[i]
// is fn(i)'s value no matter which worker computed it or when.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapCtx is Map under a context. On cancellation the partial result
// slice is returned alongside the context's error; entries whose tasks
// never ran hold T's zero value, and callers must treat the whole
// slice as invalid when err is non-nil.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) { out[i] = fn(i) })
	return out, err
}
