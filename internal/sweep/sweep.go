// Package sweep is the one driver behind every seed-sharded,
// index-merged, resumable sweep (DESIGN.md §8, §12). The fault
// campaign (harness.Campaign) and the cross-mode differential oracle
// (difftest.Oracle) are two values of the one Sweep type; the driver
// owns everything they share. Shards are deterministic and the merge
// is strictly index-ordered, so a sweep's result, summary and progress
// stream are byte-identical at any worker count and from any resume
// point. A durable caller passes a journal callback that receives each
// live shard's digest as the merge reaches it, in index order, so what
// the journal holds is always a contiguous shard prefix; durability
// itself is the journal's job. Kind erases the digest type to the
// json.RawMessage bytes the journal carries; every caller outside the
// two sweeps drives them through it.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

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
	// the single shard-execution point for fresh and resumed sweeps
	// alike.
	Run func(pool *core.MachinePool, seeds, i int) T
	// Line renders shard i's progress line from its digest.
	Line func(seeds, i int, t T) string
	// Fold merges the complete digest slice, in index order, into the
	// sweep's Result. It executes no shard.
	Fold func(seeds int, shards []T) Result
}

// Options sizes and wires one run of a sweep.
type Options struct {
	Seeds    int                  // seed count; must be positive
	Workers  int                  // shard width (0: GOMAXPROCS)
	Pool     *core.MachinePool    // machine source (nil: a private pool)
	Progress io.Writer            // one line per shard, in index order (nil: none)
	Runner   parallel.ShardRunner // wraps every shard execution (nil: none)
}

// Resume runs the sweep. done holds the digests of the contiguous
// shard prefix recovered from the journal (nil for a fresh run); those
// shards are replayed into the progress stream and folded, never
// re-executed. journal, when non-nil, is called with every live shard's
// digest bytes as the merge reaches it — strictly in index order, never
// concurrently, never for a shard of done — and a journal error aborts
// the sweep with that error (DESIGN.md §12). Cancelling ctx aborts
// after at most the shards in flight; partial results are never
// returned.
func (s *Sweep[T]) Resume(ctx context.Context, o Options, done []T, journal func(i int, digest json.RawMessage) error) (Result, error) {
	if o.Seeds <= 0 {
		return nil, fmt.Errorf("%s: seed count must be positive, got %d", s.Name, o.Seeds)
	}
	n := s.Shards(o.Seeds)
	if len(done) > n {
		return nil, fmt.Errorf("%s: checkpoint has %d shards but a %d-seed sweep has only %d",
			s.Name, len(done), o.Seeds, n)
	}
	// merged holds shard i's digest for the fold and streams its
	// progress line. The replayed prefix and the live shards both go
	// through it, so a resumed stream is byte-identical by construction.
	shards := make([]T, 0, n)
	merged := func(i int, t T) {
		shards = append(shards, t)
		if o.Progress != nil {
			io.WriteString(o.Progress, s.Line(o.Seeds, i, t))
		}
	}
	for i, t := range done {
		merged(i, t) // journaled already
	}
	// A live digest is marshalled only for a journal, so a run without
	// one does no encoding work.
	f := parallel.NewFrontier(len(done), n, func(i int, t T) error {
		if journal != nil {
			blob, err := json.Marshal(t)
			if err != nil {
				return fmt.Errorf("%s: journal shard %d: %w", s.Name, i, err)
			}
			if err := journal(i, blob); err != nil {
				return err
			}
		}
		merged(i, t)
		return nil
	})
	pool := o.Pool
	if pool == nil {
		pool = &core.MachinePool{}
	}
	err := f.Run(ctx, o.Workers, o.Runner, func(i int) (T, error) { return s.Run(pool, o.Seeds, i), nil })
	if err != nil {
		return nil, fmt.Errorf("%s aborted: %w", s.Name, err)
	}
	return s.Fold(o.Seeds, shards), nil
}

// Kind is a Sweep with its digest type erased to the journal's bytes.
type Kind interface {
	// Resume is Sweep.Resume over journaled digests.
	Resume(ctx context.Context, o Options, done []json.RawMessage, journal func(i int, digest json.RawMessage) error) (Result, error)
}

// Kind returns the sweep's digest-erased view.
func (s *Sweep[T]) Kind() Kind { return kind[T]{s} }

type kind[T any] struct{ s *Sweep[T] }

// Resume decodes the journaled digest prefix back into typed shards and
// resumes from it.
func (k kind[T]) Resume(ctx context.Context, o Options, done []json.RawMessage, journal func(i int, digest json.RawMessage) error) (Result, error) {
	var typed []T
	if len(done) > 0 {
		typed = make([]T, len(done))
	}
	for i, blob := range done {
		if err := json.Unmarshal(blob, &typed[i]); err != nil {
			return nil, fmt.Errorf("%s: corrupt shard digest %d: %w", k.s.Name, i, err)
		}
	}
	return k.s.Resume(ctx, o, typed, journal)
}
