// Package parallel is the execution engine that shards independent
// simulator runs — fault-campaign seeds, per-mode cost measurements,
// figure sweep points — across worker goroutines.
//
// The design constraint is determinism: results must be identical to a
// serial run regardless of scheduling. The engine therefore separates
// execution order (whichever worker is free) from result order (always
// the task index): Map writes each result into out[i], and callers
// merge strictly by index, never by completion time. Every simulated
// machine is self-contained (see DESIGN.md §8 for the shared-state
// audit), so the only cross-task coupling is read-only caches, and a
// run's bytes cannot depend on which worker executed it.
//
// Work distribution is one shared counter: a free worker takes the
// next index from it, so indices are handed out in ascending order.
// Shards therefore finish close to index order, which is the order the
// merge frontier (Frontier) consumes them in: with no more workers than
// CPUs its pending set holds about as many results as there are shards
// in flight, and the journal and progress advance steadily. Load
// balance comes from the same rule — a worker stuck on a slow shard
// simply takes no more indices.
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

// ForEachCtx runs fn(i) exactly once for every i in [0, n), sharded
// across the given number of workers (normalized via Workers), and
// returns when every started call has completed. Every worker checks
// ctx before taking another index, so a cancellation or deadline stops
// the sweep after at most the tasks already in flight (one per worker)
// finish. Which task indices ran before the abort is scheduling-
// dependent, but the abort itself is deterministic for callers: a
// non-nil return means the sweep is incomplete and its results must be
// discarded, a nil return means fn ran exactly once for every index.
// A panic in fn is re-raised in the caller after the remaining workers
// drain.
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

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	return ctx.Err()
}

// Map runs fn(i) for every i in [0, n) across workers and returns the
// results ordered by index — the deterministic-merge primitive: out[i]
// is fn(i)'s value no matter which worker computed it or when.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out, _ := MapCtx(context.Background(), workers, n, fn)
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
