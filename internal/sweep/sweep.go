// Package sweep is the one driver behind every seed-sharded,
// index-merged, resumable sweep (DESIGN.md §8, §12). The fault
// campaign (harness.Campaign) and the cross-mode differential oracle
// (difftest.Oracle) are two values of the one Sweep type; the driver
// owns everything they share. Shards are deterministic and the merge
// is strictly index-ordered, so a sweep's result, summary and progress
// stream are byte-identical at any worker count and from any resume
// point. Kind erases the digest type to the json.RawMessage bytes the
// journal and the fleet protocol carry; every caller outside the two
// sweeps drives them through it.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"uexc/internal/core"
	"uexc/internal/parallel"
	"uexc/internal/verdict"
)

// Result is a folded sweep.
type Result interface {
	// Summary renders the deterministic report (the CLI's stdout).
	Summary() string
	// Counts is the typed verdict tally (DESIGN.md §14).
	Counts() verdict.Counts
	// Err is nil when the sweep passed and otherwise carries its one
	// failure message.
	Err() error
}

// Sweep is one sweep over shard digests of type T. Every func must be
// deterministic in its arguments: that is what makes the merge and
// resume byte-identical.
type Sweep[T any] struct {
	// Name labels the sweep's errors ("fault campaign", "difftest").
	Name string
	// Shards is the size of a seeds-sized sweep's shard space.
	Shards func(seeds int) int
	// Run executes shard i on a pooled machine and returns its digest —
	// the single shard-execution point for local sweeps, resumes, and
	// remote shard ranges alike.
	Run func(pool *core.MachinePool, seeds, i int) T
	// Line renders shard i's progress line from its digest.
	Line func(seeds, i int, t T) string
	// Fold merges the complete digest slice, in index order, into the
	// sweep's Result. It executes no shard.
	Fold func(seeds int, shards []T) Result
}

// Options sizes and wires one run of a sweep.
type Options struct {
	Seeds    int               // seed count; must be positive
	Workers  int               // shard width (0: GOMAXPROCS)
	Pool     *core.MachinePool // machine source (nil: a private pool)
	Progress io.Writer         // one line per shard, in index order (nil: none)
	Every    int               // checkpoint cadence in merged shards
}

// Resume runs the sweep. done holds the digests of the contiguous
// shard prefix recovered from a durable checkpoint (nil for a fresh
// run); those shards are replayed into the progress stream and folded,
// never re-executed. save, when non-nil, is called with the grown
// contiguous prefix every o.Every merged shards and at completion,
// strictly in order, never concurrently — the §12 checkpoint cadence —
// and a save error aborts the sweep with that error. Cancelling ctx
// aborts after at most the shards in flight; partial results are never
// returned.
func (s *Sweep[T]) Resume(ctx context.Context, o Options, done []T, save func(prefix []T) error) (Result, error) {
	if o.Seeds <= 0 {
		return nil, fmt.Errorf("%s: seed count must be positive, got %d", s.Name, o.Seeds)
	}
	n := s.Shards(o.Seeds)
	if len(done) > n {
		return nil, fmt.Errorf("%s: checkpoint has %d shards but a %d-seed sweep has only %d",
			s.Name, len(done), o.Seeds, n)
	}
	pool := o.Pool
	if pool == nil {
		pool = &core.MachinePool{}
	}
	if o.Progress != nil {
		for i, t := range done {
			io.WriteString(o.Progress, s.Line(o.Seeds, i, t))
		}
	}
	progress := parallel.NewOrderedWriterAt(o.Progress, len(done))
	shards, err := parallel.MapResumeCtx(ctx, o.Workers, n, done, o.Every, save, func(i int) T {
		t := s.Run(pool, o.Seeds, i)
		if o.Progress != nil {
			progress.Emit(i, s.Line(o.Seeds, i, t))
		}
		return t
	})
	if err != nil {
		return nil, fmt.Errorf("%s aborted: %w", s.Name, err)
	}
	return s.Fold(o.Seeds, shards), nil
}

// Kind is a Sweep with its digest type erased to the journal's bytes:
// digests cross it as the exact JSON a checkpoint writes and a fleet
// worker streams.
type Kind interface {
	// Shards is the size of a seeds-sized sweep's shard space.
	Shards(seeds int) int
	// Resume is Sweep.Resume over journaled digests. A digest is
	// marshalled only when save is called, so a run without a save
	// callback does no encoding work.
	Resume(ctx context.Context, o Options, done []json.RawMessage, save func(prefix []json.RawMessage) error) (Result, error)
	// RunShard executes shard i and returns its digest bytes.
	RunShard(pool *core.MachinePool, seeds, i int) (json.RawMessage, error)
	// Line renders shard i's progress line from its digest bytes.
	Line(seeds, i int, digest json.RawMessage) (string, error)
	// Fold merges the complete digest slice into the sweep's Result.
	Fold(seeds int, digests []json.RawMessage) (Result, error)
}

// Kind returns the sweep's digest-erased view.
func (s *Sweep[T]) Kind() Kind { return kind[T]{s} }

type kind[T any] struct{ s *Sweep[T] }

func (k kind[T]) Shards(seeds int) int { return k.s.Shards(seeds) }

func (k kind[T]) Resume(ctx context.Context, o Options, done []json.RawMessage, save func(prefix []json.RawMessage) error) (Result, error) {
	typed, err := k.decode(done)
	if err != nil {
		return nil, err
	}
	var typedSave func(prefix []T) error
	if save != nil {
		// The sweep saves its typed prefix in order, growing only, so
		// each digest is marshalled once, when it first becomes durable.
		raw := slices.Clone(done)
		typedSave = func(prefix []T) error {
			for i := len(raw); i < len(prefix); i++ {
				blob, err := json.Marshal(prefix[i])
				if err != nil {
					return fmt.Errorf("%s: checkpoint shard %d: %w", k.s.Name, i, err)
				}
				raw = append(raw, blob)
			}
			return save(raw)
		}
	}
	return k.s.Resume(ctx, o, typed, typedSave)
}

func (k kind[T]) RunShard(pool *core.MachinePool, seeds, i int) (json.RawMessage, error) {
	return json.Marshal(k.s.Run(pool, seeds, i))
}

func (k kind[T]) Line(seeds, i int, digest json.RawMessage) (string, error) {
	var t T
	if err := json.Unmarshal(digest, &t); err != nil {
		return "", k.corrupt(i, err)
	}
	return k.s.Line(seeds, i, t), nil
}

func (k kind[T]) Fold(seeds int, digests []json.RawMessage) (Result, error) {
	typed, err := k.decode(digests)
	if err != nil {
		return nil, err
	}
	return k.s.Fold(seeds, typed), nil
}

// decode unmarshals a journaled digest prefix back into typed shards.
func (k kind[T]) decode(raw []json.RawMessage) ([]T, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make([]T, len(raw))
	for i, blob := range raw {
		if err := json.Unmarshal(blob, &out[i]); err != nil {
			return nil, k.corrupt(i, err)
		}
	}
	return out, nil
}

func (k kind[T]) corrupt(i int, err error) error {
	return fmt.Errorf("%s: corrupt shard digest %d: %w", k.s.Name, i, err)
}
