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
// json.RawMessage bytes the journal and the fleet protocol carry; every
// caller outside the two sweeps drives them through it.
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
	m, err := s.merge(o, done, journal)
	if err != nil {
		return nil, err
	}
	pool := o.Pool
	if pool == nil {
		pool = &core.MachinePool{}
	}
	err = m.Run(ctx, o.Workers, o.Runner, func(i int) (T, error) { return s.Run(pool, o.Seeds, i), nil })
	if err != nil {
		return nil, fmt.Errorf("%s aborted: %w", s.Name, err)
	}
	return m.fold()
}

// shardMerge is a sweep's merge frontier plus what every path does
// with a merged shard: keep its digest for the fold and stream its
// progress line. A local run, a resume's replayed prefix and a fleet's
// remote digests all go through it, so their streams are byte-identical
// by construction.
type shardMerge[T any] struct {
	*parallel.Frontier[T]
	s       *Sweep[T]
	o       Options
	journal func(i int, digest json.RawMessage) error
	shards  []T
}

// merge validates o against done, replays done's progress lines, and
// returns the merge with its frontier at len(done).
func (s *Sweep[T]) merge(o Options, done []T, journal func(i int, digest json.RawMessage) error) (*shardMerge[T], error) {
	if o.Seeds <= 0 {
		return nil, fmt.Errorf("%s: seed count must be positive, got %d", s.Name, o.Seeds)
	}
	n := s.Shards(o.Seeds)
	if len(done) > n {
		return nil, fmt.Errorf("%s: checkpoint has %d shards but a %d-seed sweep has only %d",
			s.Name, len(done), o.Seeds, n)
	}
	m := &shardMerge[T]{s: s, o: o, shards: make([]T, 0, n)}
	for i, t := range done {
		m.merged(i, t) // before the journal is set: done is journaled already
	}
	m.journal = journal
	m.Frontier = parallel.NewFrontier(len(done), n, m.merged)
	return m, nil
}

// merged journals shard i's digest, holds it for the fold, and streams
// its progress line. A digest is marshalled only for a journal, so a
// run without one does no encoding work.
func (m *shardMerge[T]) merged(i int, t T) error {
	if m.journal != nil {
		blob, err := json.Marshal(t)
		if err != nil {
			return fmt.Errorf("%s: journal shard %d: %w", m.s.Name, i, err)
		}
		if err := m.journal(i, blob); err != nil {
			return err
		}
	}
	m.shards = append(m.shards, t)
	if m.o.Progress != nil {
		io.WriteString(m.o.Progress, m.s.Line(m.o.Seeds, i, t))
	}
	return nil
}

// fold folds the complete sweep; it fails if a shard is missing.
func (m *shardMerge[T]) fold() (Result, error) {
	if err := m.Finish(); err != nil {
		return nil, err
	}
	return m.s.Fold(m.o.Seeds, m.shards), nil
}

// Kind is a Sweep with its digest type erased to the journal's bytes:
// digests cross it as the exact JSON the journal holds and a fleet
// worker streams.
type Kind interface {
	// Shards is the size of a seeds-sized sweep's shard space.
	Shards(seeds int) int
	// Resume is Sweep.Resume over journaled digests.
	Resume(ctx context.Context, o Options, done []json.RawMessage, journal func(i int, digest json.RawMessage) error) (Result, error)
	// RunShard executes shard i and returns its digest bytes.
	RunShard(pool *core.MachinePool, seeds, i int) (json.RawMessage, error)
	// Merge is the sweep's merge over digests computed elsewhere — a
	// fleet coordinator's remote shards. It replays done's progress
	// lines to o.Progress and journals each merged shard exactly as
	// Resume does; o.Workers, o.Pool and o.Runner are unused.
	Merge(o Options, done []json.RawMessage, journal func(i int, digest json.RawMessage) error) (Merge, error)
}

// Merge folds shard digests that arrive in any order into the sweep's
// Result, executing nothing.
type Merge interface {
	// Add accepts shard i's digest under the frontier's rules: any
	// order, duplicates ignored, an index past the shard space refused.
	// It returns a corrupt digest's error and the sticky first
	// journal error.
	Add(i int, digest json.RawMessage) error
	// Fold folds the complete sweep; it fails if a shard is missing.
	Fold() (Result, error)
}

// Kind returns the sweep's digest-erased view.
func (s *Sweep[T]) Kind() Kind { return kind[T]{s} }

type kind[T any] struct{ s *Sweep[T] }

func (k kind[T]) Shards(seeds int) int { return k.s.Shards(seeds) }

func (k kind[T]) Resume(ctx context.Context, o Options, done []json.RawMessage, journal func(i int, digest json.RawMessage) error) (Result, error) {
	typed, err := k.decode(done)
	if err != nil {
		return nil, err
	}
	return k.s.Resume(ctx, o, typed, journal)
}

func (k kind[T]) RunShard(pool *core.MachinePool, seeds, i int) (json.RawMessage, error) {
	return json.Marshal(k.s.Run(pool, seeds, i))
}

func (k kind[T]) Merge(o Options, done []json.RawMessage, journal func(i int, digest json.RawMessage) error) (Merge, error) {
	typed, err := k.decode(done)
	if err != nil {
		return nil, err
	}
	m, err := k.s.merge(o, typed, journal)
	if err != nil {
		return nil, err
	}
	return digestMerge[T]{m}, nil
}

// digestMerge is a shardMerge fed digest bytes.
type digestMerge[T any] struct{ m *shardMerge[T] }

func (d digestMerge[T]) Add(i int, digest json.RawMessage) error {
	var t T
	if err := json.Unmarshal(digest, &t); err != nil {
		return d.m.s.corrupt(i, err)
	}
	return d.m.Add(i, t)
}

func (d digestMerge[T]) Fold() (Result, error) { return d.m.fold() }

// decode unmarshals a journaled digest prefix back into typed shards.
func (k kind[T]) decode(raw []json.RawMessage) ([]T, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make([]T, len(raw))
	for i, blob := range raw {
		if err := json.Unmarshal(blob, &out[i]); err != nil {
			return nil, k.s.corrupt(i, err)
		}
	}
	return out, nil
}

func (s *Sweep[T]) corrupt(i int, err error) error {
	return fmt.Errorf("%s: corrupt shard digest %d: %w", s.Name, i, err)
}
