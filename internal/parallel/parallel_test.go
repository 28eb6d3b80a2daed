package parallel

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrderAndCoverage: every index runs exactly once and results
// land at their own index, for worker counts spanning the serial path,
// contention, and more workers than tasks.
func TestMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			var calls atomic.Int64
			out := Map(workers, n, func(i int) int {
				calls.Add(1)
				return i * i
			})
			if len(out) != n {
				t.Fatalf("workers=%d n=%d: len(out) = %d", workers, n, len(out))
			}
			if got := calls.Load(); got != int64(n) {
				t.Errorf("workers=%d n=%d: fn ran %d times", workers, n, got)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d n=%d: out[%d] = %d, want %d", workers, n, i, v, i*i)
				}
			}
		}
	}
}

// TestForEachExactlyOnce uses a per-index counter to catch both missed
// and doubled indices under heavy contention for the shared counter.
func TestForEachExactlyOnce(t *testing.T) {
	const n = 5000
	counts := make([]atomic.Int32, n)
	ForEachCtx(context.Background(), 16, n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestStealingSkewed gives the first indices almost all the work; the
// run only finishes promptly if idle workers keep taking indices while
// the loaded ones are busy. The assertion is completion plus
// exactly-once coverage (the timing is bounded by the test timeout,
// not a flaky wall-clock check).
func TestStealingSkewed(t *testing.T) {
	const n = 64
	var slow atomic.Int64
	counts := make([]atomic.Int32, n)
	ForEachCtx(context.Background(), 8, n, func(i int) {
		counts[i].Add(1)
		if i < 8 { // all heavy work in the first indices
			slow.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	})
	if slow.Load() != 8 {
		t.Fatalf("heavy tasks ran %d times, want 8", slow.Load())
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestDeterministicMerge: result bytes are identical across worker
// counts even though execution interleaving differs.
func TestDeterministicMerge(t *testing.T) {
	fn := func(i int) string { return fmt.Sprintf("task-%03d", i*7%13) }
	want := Map(1, 200, fn)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := Map(workers, 200, fn); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: merged results differ from serial", workers)
		}
	}
}

// TestPanicPropagates: a panicking task surfaces in the caller rather
// than killing a worker goroutine (and with it the process).
func TestPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	ForEachCtx(context.Background(), 4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("ForEachCtx returned after panic")
}

// TestWorkers: the normalization rule.
func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS", got)
	}
}

// TestInOrderDispensing pins the dispensing rule: indices are handed
// out in ascending order from one counter, so when fn(i) starts, every
// earlier index has been taken, and at most the other W-1 workers can
// hold one they have not yet started. At least i-(W-1) earlier calls
// have therefore started. This is the order the merge frontier
// consumes results in, which keeps its pending set near W entries.
func TestInOrderDispensing(t *testing.T) {
	const n = 2000
	for _, workers := range []int{1, 2, 4, 8} {
		var started, outOfOrder atomic.Int64
		ForEachCtx(context.Background(), workers, n, func(i int) {
			if earlier := started.Add(1) - 1; earlier < int64(i-(workers-1)) {
				outOfOrder.Add(1)
			}
			if i%7 == 0 {
				runtime.Gosched()
			}
		})
		if got := outOfOrder.Load(); got != 0 {
			t.Errorf("workers=%d: %d of %d calls started with fewer than i-(W-1) earlier calls started", workers, got, n)
		}
	}
}

// TestForEachCtxCancelStopsPromptly: cancelling the context mid-sweep
// stops workers from taking further indices. ForEachCtx promises that a
// worker checks ctx before every take, so the tasks that start after
// ctx.Err() is non-nil are at most one per worker (each took its index
// just before the cancel landed). How many tasks other workers start
// while cancel itself runs is scheduling, so the total is bounded only
// by n. The call reports the context error and stops short of n.
func TestForEachCtxCancelStopsPromptly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls, late atomic.Int64
		const n = 100000
		err := ForEachCtx(ctx, workers, n, func(i int) {
			if ctx.Err() != nil {
				late.Add(1)
			}
			if calls.Add(1) == 10 {
				cancel()
			}
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := late.Load(); got > int64(workers) {
			t.Errorf("workers=%d: %d tasks started after cancel, want at most one per worker", workers, got)
		}
		if got := calls.Load(); got >= n {
			t.Errorf("workers=%d: all %d tasks ran despite cancel", workers, got)
		}
		cancel()
	}
}

// TestForEachCtxDeadline: an already-expired deadline runs nothing.
func TestForEachCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var calls atomic.Int64
	err := ForEachCtx(ctx, 4, 50, func(i int) { calls.Add(1) })
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if calls.Load() != 0 {
		t.Errorf("%d tasks ran under an expired deadline", calls.Load())
	}
}

// TestMapCtxComplete: an uncancelled MapCtx is exactly Map.
func TestMapCtxComplete(t *testing.T) {
	out, err := MapCtx(context.Background(), 3, 40, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapCtxCancelled: a cancelled MapCtx surfaces the context error so
// callers discard the partial results.
func TestMapCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapCtx(ctx, 2, 10, func(i int) int { return i })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
