package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"uexc/internal/parallel"
)

// ShardFault is one injected fault decision for a (job, shard,
// attempt) triple — the chaos harness's hook into the shard runner.
// The zero value injects nothing.
type ShardFault struct {
	// Panic makes the attempt panic instead of running the shard body,
	// simulating a worker crash mid-shard.
	Panic bool
	// Stall delays the attempt by this much before it runs. A stall at
	// or past the shard deadline fails the attempt without sleeping it
	// out, simulating a hung shard hitting its timeout.
	Stall time.Duration
}

// ErrShardPoisoned marks a shard that kept failing after every retry
// and was quarantined, failing its job with a typed error chain:
// errors.Is(err, ErrShardPoisoned) holds for the job's terminal error,
// and errors.As recovers the *ShardError with the shard's identity.
var ErrShardPoisoned = errors.New("poison shard quarantined")

// ShardError is the terminal error of a quarantined shard.
type ShardError struct {
	Job      uint64
	Shard    int
	Attempts int
	Err      error // the last attempt's failure
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("job %d shard %d: %v after %d attempts: %v",
		e.Job, e.Shard, ErrShardPoisoned, e.Attempts, e.Err)
}

func (e *ShardError) Unwrap() []error { return []error{ErrShardPoisoned, e.Err} }

// shardRunner builds the parallel.ShardRunner for one job: every shard
// of the job's sweep gets ShardAttempts executions with exponential
// backoff and deterministic jitter between them; an attempt fails by
// panicking (the engines' shard bodies do not return errors — a panic
// is the only failure a shard can produce) or by an injected fault.
// A shard still failing after the last attempt is quarantined: the
// runner panics with a typed *ShardError, which parallel.ForEachCtx
// re-raises on the job's goroutine and execute converts into the job's
// terminal error. When the job's context dies the runner instead
// returns without having run the shard — the give-up the
// parallel.ShardRunner contract allows, which keeps the skipped shard
// out of the merge frontier.
func (s *Server) shardRunner(j *job) parallel.ShardRunner {
	return func(i int, run func()) {
		attempts := s.cfg.ShardAttempts
		var lastErr error
		for a := 0; a < attempts; a++ {
			if a > 0 {
				s.metrics.add(func(m *metrics) { m.ShardRetries++ })
				sleepOrCancel(j.ctx, retryBackoff(s.cfg.ShardBackoff, a, j.id, i))
			}
			if j.ctx.Err() != nil {
				// The job is dead (deadline, kill); don't burn a full
				// shard execution the sweep will discard anyway.
				return
			}
			if lastErr = s.attemptShard(j, i, a, run); lastErr == nil {
				return
			}
			if j.ctx.Err() != nil {
				// The job died during the attempt; that's cancellation,
				// not poison — give up without quarantining the shard.
				return
			}
		}
		s.metrics.add(func(m *metrics) { m.ShardsPoisoned++ })
		panic(&ShardError{Job: j.id, Shard: i, Attempts: attempts, Err: lastErr})
	}
}

// attemptShard runs one attempt of one shard, applying any injected
// fault and the per-shard deadline, and converts a panic into an
// error the retry loop can count.
func (s *Server) attemptShard(j *job, shard, attempt int, run func()) (err error) {
	var fault ShardFault
	if s.cfg.shardFault != nil {
		fault = s.cfg.shardFault(j.id, shard, attempt)
	}
	deadline := s.cfg.ShardDeadline
	if fault.Stall > 0 {
		s.metrics.add(func(m *metrics) { m.ShardStalls++ })
		if fault.Stall >= deadline {
			// The stall would outlive the shard deadline: fail the
			// attempt now instead of sleeping the full hang out.
			s.metrics.add(func(m *metrics) { m.ShardTimeouts++ })
			return fmt.Errorf("shard %d attempt %d: stalled past the %v deadline", shard, attempt, deadline)
		}
		sleepOrCancel(j.ctx, fault.Stall)
		if jerr := j.ctx.Err(); jerr != nil {
			// The job died while the stall slept; running the shard body
			// now would burn engine time on a result the sweep discards
			// and delay Kill's worker shutdown.
			return fmt.Errorf("shard %d attempt %d: job cancelled during injected stall: %w", shard, attempt, jerr)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard %d attempt %d panicked: %v", shard, attempt, r)
		}
	}()
	if fault.Panic {
		panic(fmt.Sprintf("injected worker panic (job %d shard %d attempt %d)", j.id, shard, attempt))
	}
	start := time.Now()
	run()
	if time.Since(start) > deadline {
		// Cooperative deadline: the interpreter cannot be killed
		// mid-run, so an overlong shard is counted, not aborted.
		s.metrics.add(func(m *metrics) { m.ShardTimeouts++ })
	}
	return nil
}

// retryBackoff is the pause before retry `attempt` (1-based): the base
// doubled per attempt, capped at 1s, plus deterministic jitter derived
// from (job, shard, attempt) — seeded, so chaos runs reproduce, yet
// spread, so co-failing shards don't retry in lockstep.
func retryBackoff(base time.Duration, attempt int, job uint64, shard int) time.Duration {
	d := base << (attempt - 1)
	if d > time.Second {
		d = time.Second
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", job, shard, attempt)
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d + jitter
}

// sleepOrCancel sleeps d, returning early if ctx dies first.
func sleepOrCancel(ctx interface{ Done() <-chan struct{} }, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
