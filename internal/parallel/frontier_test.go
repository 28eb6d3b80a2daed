package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// frontierCase is one row of TestFrontier: a frontier over [start, n),
// fed either directly (adds, in arrival order) or by the driver (drive,
// once per width).
type frontierCase struct {
	name     string
	start, n int
	// adds is the direct arrival order; index i carries the serial
	// result i+1.
	adds []int
	// drive feeds the frontier through Run at the given width.
	drive  func(t *testing.T, f *Frontier[int], workers int) error
	widths []int // drive widths (nil: 1 and 4)
	// failAt makes the merged call of index failAt fail (0: never).
	failAt int
	// wantNext is where the merged prefix must end (-1: scheduling-
	// dependent, unchecked).
	wantNext int
	wantErr  string // substring of the final error ("": success)
}

var errDiskFull = errors.New("disk full")

// serialShard is the shard body of every drive row: the serial result.
func serialShard(i int) (int, error) { return i + 1, nil }

// runPlain drives the frontier with no runner.
func runPlain(t *testing.T, f *Frontier[int], workers int) error {
	return f.Run(context.Background(), workers, nil, serialShard)
}

// frontierCases covers the §8 frontier's contract as a local sweep's
// driver, from the start of the shard space and from a resumed prefix.
var frontierCases = []frontierCase{
	{
		name: "skips-done-prefix", start: 3, n: 8, wantNext: 8,
		drive: func(t *testing.T, f *Frontier[int], workers int) error {
			return f.Run(context.Background(), workers, nil, func(i int) (int, error) {
				if i < 3 {
					t.Errorf("done shard %d re-executed", i)
				}
				return serialShard(i)
			})
		},
	},
	{name: "every-index-merged", n: 17, wantNext: 17, drive: runPlain},
	{name: "resume-equivalence", start: 7, n: 12, wantNext: 12, drive: runPlain},
	{
		// The disk fills when the prefix reaches half the sweep: the
		// journal call of index 50 fails, so the prefix stops there at
		// every width, and the error sticks.
		name: "save-error-aborts", n: 100, failAt: 50, wantNext: 50, wantErr: "disk full",
		drive: func(t *testing.T, f *Frontier[int], workers int) error {
			err := runPlain(t, f, workers)
			if aerr := f.add(99, 100); !errors.Is(aerr, errDiskFull) {
				t.Errorf("Add after a failed merge = %v, want the sticky %v", aerr, errDiskFull)
			}
			return err
		},
	},
	{
		// A runner that gives up without calling run (its only legal
		// reason: the sweep's context is dead) must not advance the
		// frontier, so no journal record can cover a shard that never ran.
		name: "give-up-not-checkpointed", n: 12, wantNext: -1, wantErr: "context canceled",
		drive: func(t *testing.T, f *Frontier[int], workers int) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return f.Run(ctx, workers, func(i int, run func()) {
				if i >= 5 {
					cancel()
				}
				if ctx.Err() != nil {
					return
				}
				run()
			}, serialShard)
		},
	},
	{
		// Later shards complete and wait in the pending set while shard 1
		// stalls; the sweep is then cancelled and shard 1's runner gives
		// up. The driver must not deadlock, and only the prefix below the
		// stall may be merged — never a pending later shard.
		name: "cancel-buffered-ahead-of-stall", n: 8, widths: []int{2, 4},
		wantNext: 1, wantErr: "context canceled",
		drive: func(t *testing.T, f *Frontier[int], workers int) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stall := make(chan struct{})
			var later, zero atomic.Int32
			done := make(chan error, 1)
			go func() {
				done <- f.Run(ctx, workers, func(i int, run func()) {
					if i == 1 {
						<-stall // held until after cancellation, like a hung worker
						if ctx.Err() != nil {
							return
						}
					}
					run()
				}, func(i int) (int, error) {
					if i > 1 {
						later.Add(1)
					} else if i == 0 {
						zero.Add(1)
					}
					return serialShard(i)
				})
			}()
			deadline := time.After(10 * time.Second)
			for later.Load() < 2 || zero.Load() == 0 {
				select {
				case <-deadline:
					t.Fatal("sweep never reached the pending-ahead-of-stall state")
				case <-time.After(time.Millisecond):
				}
			}
			cancel()
			close(stall)
			select {
			case err := <-done:
				return err
			case <-time.After(10 * time.Second):
				t.Fatal("frontier deadlocked on cancellation with pending later shards")
				return nil
			}
		},
	},
	{name: "out-of-order", n: 6, adds: []int{5, 3, 1, 0, 4, 2}, wantNext: 6},
	{name: "finish-incomplete", n: 3, adds: []int{0, 2}, wantNext: 1, wantErr: "stopped at shard 1 of 3"},
}

// frontierRecord is what a frontier under test emitted.
type frontierRecord struct {
	mu     sync.Mutex
	merged []int // indices, in merge order
	vals   []int
}

func (r *frontierRecord) frontier(c frontierCase) *Frontier[int] {
	return NewFrontier(c.start, c.n, func(i, v int) error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if c.failAt > 0 && i == c.failAt {
			return errDiskFull
		}
		r.merged = append(r.merged, i)
		r.vals = append(r.vals, v)
		return nil
	})
}

// TestFrontier runs every frontierCase and holds each to the contract:
// the merged stream is the serial results of start, start+1, ... in
// order, each exactly once, and a completed frontier holds nothing
// pending.
func TestFrontier(t *testing.T) {
	for _, c := range frontierCases {
		t.Run(c.name, func(t *testing.T) {
			widths := c.widths
			if c.drive == nil {
				widths = []int{1}
			} else if widths == nil {
				widths = []int{1, 4}
			}
			for _, workers := range widths {
				var r frontierRecord
				f := r.frontier(c)
				var err error
				if c.drive != nil {
					err = c.drive(t, f, workers)
				} else {
					for _, i := range c.adds {
						if aerr := f.add(i, i+1); err == nil {
							err = aerr
						}
					}
					if ferr := f.finish(); err == nil {
						err = ferr
					}
				}
				r.check(t, c, fmt.Sprintf("workers=%d", workers), err)
				if err == nil && len(f.pending) != 0 {
					t.Fatalf("workers=%d: completed frontier still holds %v", workers, f.pending)
				}
			}
		})
	}
}

func (r *frontierRecord) check(t *testing.T, c frontierCase, what string, err error) {
	t.Helper()
	switch {
	case c.wantErr == "" && err != nil:
		t.Fatalf("%s: %v", what, err)
	case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
		t.Fatalf("%s: err = %v, want one containing %q", what, err, c.wantErr)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, i := range r.merged {
		if i != c.start+k || r.vals[k] != i+1 {
			t.Fatalf("%s: merged stream %v (values %v) is not the serial results from %d",
				what, r.merged, r.vals, c.start)
		}
	}
	next := c.start + len(r.merged)
	if c.wantNext >= 0 && next != c.wantNext {
		t.Fatalf("%s: merged prefix ends at %d, want %d", what, next, c.wantNext)
	}
}

// TestShardRunnerWrapsEveryShard: the driver's runner sees every live
// shard exactly once at its true index (under resume too, so done
// shards are never wrapped), and a runner's retry re-runs the shard
// body without merging it twice.
func TestShardRunnerWrapsEveryShard(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var wrapped sync.Map
		var retried, calls atomic.Int32
		var merged []int
		f := NewFrontier(2, 8, func(i, v int) error { merged = append(merged, v); return nil })
		err := f.Run(context.Background(), workers, func(i int, run func()) {
			if _, dup := wrapped.LoadOrStore(i, true); dup {
				t.Errorf("workers %d: shard %d wrapped twice", workers, i)
			}
			run()
			if i == 5 { // retry one shard: the body must tolerate re-execution
				retried.Add(1)
				run()
			}
		}, func(i int) (int, error) {
			calls.Add(1)
			return i * 100, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(merged) != 6 {
			t.Fatalf("workers %d: merged = %v, want shards 2..7", workers, merged)
		}
		for k, v := range merged {
			if v != (k+2)*100 {
				t.Fatalf("workers %d: merged = %v", workers, merged)
			}
		}
		for i := 0; i < 8; i++ {
			if _, ok := wrapped.Load(i); ok != (i >= 2) {
				t.Errorf("workers %d: shard %d wrapped = %v", workers, i, ok)
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

// FuzzFrontier feeds the frontier what local workers can produce: any
// permutation of [start, n), at every start offset, with the merged
// call of one fuzzed index (or none) failing. order picks the
// permutation as a Lehmer code: its k-th byte, modulo the number of
// indices not yet added, picks the next one, and missing bytes pick
// the lowest. A run without a failure completes; a run with one stops
// at the failed index with the error stuck to every later add and to
// finish.
func FuzzFrontier(f *testing.F) {
	f.Fuzz(func(t *testing.T, nb, startb, failb uint8, order []byte) {
		n := int(nb)%32 + 1
		start := int(startb) % (n + 1)
		failAt := int(failb) % (n + 1) // n: no merged call fails
		if failAt < start {
			failAt = n // indices below start are never merged
		}
		var merged []int
		failed := false
		fr := NewFrontier(start, n, func(i, v int) error {
			if failed {
				t.Fatalf("index %d merged after the failure at %d", i, failAt)
			}
			if v != i+1 {
				t.Fatalf("index %d merged value %d, want the serial %d", i, v, i+1)
			}
			if i == failAt {
				failed = true
				return errDiskFull
			}
			merged = append(merged, i)
			return nil
		})
		left := make([]int, 0, n-start)
		for i := start; i < n; i++ {
			left = append(left, i)
		}
		for k := 0; len(left) > 0; k++ {
			pick := 0
			if k < len(order) {
				pick = int(order[k]) % len(left)
			}
			i := left[pick]
			left = append(left[:pick], left[pick+1:]...)
			err := fr.add(i, i+1)
			switch {
			case failed:
				if !errors.Is(err, errDiskFull) {
					t.Fatalf("add(%d) after the failure at %d = %v, want the sticky %v", i, failAt, err, errDiskFull)
				}
			case err != nil:
				t.Fatalf("add(%d) of %d = %v", i, n, err)
			}
		}
		want := n
		if err := fr.finish(); failAt < n {
			want = failAt
			if !errors.Is(err, errDiskFull) {
				t.Fatalf("finish after the failure at %d = %v, want the sticky %v", failAt, err, errDiskFull)
			}
		} else if err != nil {
			t.Fatal(err)
		} else if len(fr.pending) != 0 {
			t.Fatalf("completed frontier still holds %v", fr.pending)
		}
		for k, i := range merged {
			if i != start+k {
				t.Fatalf("merged %v, want %d..%d once each in order", merged, start, want-1)
			}
		}
		if start+len(merged) != want {
			t.Fatalf("merged %v, want %d..%d", merged, start, want-1)
		}
	})
}
