package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapResumeCtxSkipsDonePrefix: shards below the done prefix never
// re-execute; the output is done ++ freshly computed suffix.
func TestMapResumeCtxSkipsDonePrefix(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran sync.Map
		done := []int{0, 10, 20} // squares-of-10 stand-ins for shards 0..2
		out, err := MapResumeCtx(context.Background(), workers, 8, done, 0, nil, func(i int) int {
			ran.Store(i, true)
			return i * 10
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*10 {
				t.Errorf("workers %d: out[%d] = %d, want %d", workers, i, v, i*10)
			}
		}
		for i := 0; i < len(done); i++ {
			if _, ok := ran.Load(i); ok {
				t.Errorf("workers %d: done shard %d re-executed", workers, i)
			}
		}
	}
}

// TestMapResumeCtxCheckpointCadence: save fires on contiguous-prefix
// boundaries every K shards plus once at completion, strictly in
// prefix order, and each saved prefix reproduces the final output's
// prefix exactly.
func TestMapResumeCtxCheckpointCadence(t *testing.T) {
	const n, every = 17, 4
	var mu sync.Mutex
	var prefixes []int
	save := func(prefix []int) error {
		mu.Lock()
		defer mu.Unlock()
		for i, v := range prefix {
			if v != i+1 {
				return fmt.Errorf("saved prefix[%d] = %d, want %d", i, v, i+1)
			}
		}
		prefixes = append(prefixes, len(prefix))
		return nil
	}
	out, err := MapResumeCtx(context.Background(), 4, n, nil, every, save, func(i int) int { return i + 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n || out[n-1] != n {
		t.Fatalf("output wrong: %v", out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(prefixes) == 0 || prefixes[len(prefixes)-1] != n {
		t.Fatalf("final prefix %v never saved (saves: %v)", n, prefixes)
	}
	for i := 1; i < len(prefixes); i++ {
		if prefixes[i] <= prefixes[i-1] {
			t.Fatalf("saves not strictly increasing: %v", prefixes)
		}
		if gap := prefixes[i] - prefixes[i-1]; gap < every && prefixes[i] != n {
			t.Errorf("non-final save advanced only %d (< every=%d): %v", gap, every, prefixes)
		}
	}
}

// TestMapResumeCtxResumeEquivalence: running to completion in one shot
// and resuming from any checkpointed prefix produce identical outputs.
func TestMapResumeCtxResumeEquivalence(t *testing.T) {
	const n = 12
	full, err := MapResumeCtx(context.Background(), 3, n, nil, 0, nil, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < n; cut += 3 {
		resumed, err := MapResumeCtx(context.Background(), 3, n, full[:cut], 2,
			func([]int) error { return nil }, func(i int) int {
				if i < cut {
					t.Errorf("cut %d: shard %d re-executed", cut, i)
				}
				return i * i
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range full {
			if resumed[i] != full[i] {
				t.Fatalf("cut %d: resumed[%d] = %d != %d", cut, i, resumed[i], full[i])
			}
		}
	}
}

// TestMapResumeCtxSaveErrorAborts: a failing save stops the sweep and
// surfaces its error, not a bare context cancellation. The disk fills
// once the prefix reaches half the sweep: how many saves precede that
// depends on scheduling (a stalled shard 0 lets the whole prefix land
// in one save), but some save always covers it, so the failure is
// certain while earlier, shorter saves still succeed.
func TestMapResumeCtxSaveErrorAborts(t *testing.T) {
	boom := errors.New("disk full")
	_, err := MapResumeCtx(context.Background(), 4, 100, nil, 1, func(prefix []int) error {
		if len(prefix) >= 50 {
			return boom
		}
		return nil
	}, func(i int) int { return i })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestShardRunnerWrapsEveryShard: a runner installed in the context
// sees every shard index exactly once (with true indices, including
// under resume) and its retries re-run the shard body.
func TestShardRunnerWrapsEveryShard(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var wrapped sync.Map
		var retried atomic.Int32
		ctx := WithShardRunner(context.Background(), func(i int, run func()) {
			if _, dup := wrapped.LoadOrStore(i, true); dup {
				t.Errorf("workers %d: shard %d wrapped twice", workers, i)
			}
			run()
			if i == 5 { // retry one shard: the body must tolerate re-execution
				retried.Add(1)
				run()
			}
		})
		var calls atomic.Int32
		out, err := MapResumeCtx(ctx, workers, 8, []int{0, 100}, 0, nil, func(i int) int {
			calls.Add(1)
			return i * 100
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*100 {
				t.Fatalf("workers %d: out = %v", workers, out)
			}
		}
		for i := 2; i < 8; i++ {
			if _, ok := wrapped.Load(i); !ok {
				t.Errorf("workers %d: live shard %d never wrapped", workers, i)
			}
		}
		for i := 0; i < 2; i++ {
			if _, ok := wrapped.Load(i); ok {
				t.Errorf("workers %d: done shard %d wrapped", workers, i)
			}
		}
		if got := calls.Load(); got != 6+1 { // 6 live shards + 1 retry
			t.Errorf("workers %d: %d body calls, want 7", workers, got)
		}
		if retried.Load() != 1 {
			t.Errorf("workers %d: retry did not happen", workers)
		}
	}
}

// TestShardRunnerGiveUpDoesNotCheckpoint: a runner that gives up
// without calling run (its only legal reason: the sweep's context is
// dead) must not advance the checkpoint frontier — no saved prefix may
// ever contain the zero-value result of a shard that never executed,
// or a resumed run would be corrupt.
func TestShardRunnerGiveUpDoesNotCheckpoint(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		rctx := WithShardRunner(ctx, func(i int, run func()) {
			if i >= 5 {
				cancel()
			}
			if ctx.Err() != nil {
				return // give up without running, as a dead-job runner does
			}
			run()
		})
		_, err := MapResumeCtx(rctx, workers, 12, nil, 1, func(prefix []int) error {
			for j, v := range prefix {
				if v != j+1 {
					t.Errorf("workers %d: saved prefix[%d] = %d — a shard that never ran was checkpointed", workers, j, v)
				}
			}
			return nil
		}, func(i int) int { return i + 1 })
		if err == nil {
			t.Errorf("workers %d: sweep with given-up shards reported success", workers)
		}
		cancel()
	}
}

// TestShardRunnerAppliesToForEachCtx: the hook also wraps plain
// (non-resume) sweeps, which the serving layer relies on for jobs
// started fresh.
func TestShardRunnerAppliesToForEachCtx(t *testing.T) {
	var wrapped atomic.Int32
	ctx := WithShardRunner(context.Background(), func(i int, run func()) {
		wrapped.Add(1)
		run()
	})
	var ran atomic.Int32
	if err := ForEachCtx(ctx, 2, 5, func(i int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if wrapped.Load() != 5 || ran.Load() != 5 {
		t.Fatalf("wrapped %d ran %d, want 5/5", wrapped.Load(), ran.Load())
	}
}

// TestOrderedWriterCancelBufferedAheadOfStall is the §8 cancellation
// torture case: later shards complete and buffer in the OrderedWriter
// while an earlier shard stalls; the sweep is then cancelled and the
// stalled shard's runner gives up without emitting. The merge must not
// deadlock (Emit never blocks, the sweep returns), must write only the
// contiguous prefix below the stall — never a buffered later line —
// and no checkpoint may cover the shard that never ran.
func TestOrderedWriterCancelBufferedAheadOfStall(t *testing.T) {
	const n = 8
	var buf bytes.Buffer
	o := NewOrderedWriter(&buf)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stall := make(chan struct{})
	var laterBuffered, zeroEmitted atomic.Int32
	rctx := WithShardRunner(ctx, func(i int, run func()) {
		if i == 1 {
			<-stall // held until after cancellation, like a hung worker
			if ctx.Err() != nil {
				return // give up without emitting, as a dead-job runner does
			}
		}
		run()
	})
	var mu sync.Mutex
	var savedPast int
	done := make(chan error, 1)
	go func() {
		_, err := MapResumeCtx(rctx, 2, n, nil, 1, func(prefix []int) error {
			mu.Lock()
			defer mu.Unlock()
			for j, v := range prefix {
				if v != j+1 {
					savedPast++ // a never-ran shard's zero value got checkpointed
				}
			}
			return nil
		}, func(i int) int {
			o.Emit(i, fmt.Sprintf("shard %d\n", i))
			if i > 1 {
				laterBuffered.Add(1)
			} else if i == 0 {
				zeroEmitted.Add(1)
			}
			return i + 1
		})
		done <- err
	}()

	// Wait until shard 0 has streamed and >= 2 later shards sit buffered
	// behind stalled shard 1, then cancel and release the stall.
	deadline := time.After(10 * time.Second)
	for laterBuffered.Load() < 2 || zeroEmitted.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("sweep never reached the buffered-ahead-of-stall state")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	close(stall)

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled sweep with a given-up shard reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ordered merge deadlocked on cancellation with buffered later shards")
	}
	if got := buf.String(); got != "shard 0\n" {
		t.Fatalf("stream after cancel = %q, want exactly the prefix below the stall", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if savedPast != 0 {
		t.Fatalf("%d checkpoint entries covered the shard that never ran", savedPast)
	}
}

// TestOrderedWriterAt: a writer started at index k drops emits below k
// and streams from k upward in order.
func TestOrderedWriterAt(t *testing.T) {
	var buf bytes.Buffer
	o := NewOrderedWriterAt(&buf, 2)
	o.Emit(3, "three\n")
	o.Emit(0, "zero\n") // already written by the resume replay; ignored
	o.Emit(2, "two\n")
	o.Emit(1, "one\n") // ignored too
	o.Emit(4, "four\n")
	if got, want := buf.String(), "two\nthree\nfour\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
