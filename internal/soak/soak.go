// Package soak is the seed-space triage sweep (DESIGN.md §14): it
// drives both campaign engines — the fault-injection campaign and the
// cross-mode differential oracle — over seeds [0, N), with every run
// classified by the typed verdict layer, and fails on any unclassified
// (EngineBug) verdict.
//
// The sweep rides the §12 durable job store: each phase is journaled
// as one job whose merged shard prefix is appended at the engines'
// checkpoint cadence, so a killed soak resumes from its last synced
// prefix and — because shards are deterministic and the merge is
// index-ordered — produces a progress stream, summary, and result
// byte-identical to an undisturbed run at any -parallel width and any
// kill point.
package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"uexc/internal/core"
	"uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/server/store"
	"uexc/internal/sweep"
	"uexc/internal/verdict"
)

// Options configures a sweep.
type Options struct {
	// Seeds is the per-phase seed count (<=0: 10_000 — the full triage
	// target).
	Seeds int
	// Workers shards each phase's runs (0: GOMAXPROCS).
	Workers int
	// Dir, when non-empty, holds the §12 journal; empty runs without
	// durability (no resume).
	Dir string
	// Every is the checkpoint cadence in merged shards (<=0: 64).
	Every int
}

// Result aggregates the phases, one per sweep in run order: the fault
// campaign, then the difftest oracle.
type Result struct {
	Phases []sweep.Result
}

// Verdicts merges every phase's verdict tally.
func (r *Result) Verdicts() verdict.Counts {
	var c verdict.Counts
	for _, p := range r.Phases {
		for k, n := range p.Counts() {
			c[k] += n
		}
	}
	return c
}

// Gate is the soak pass/fail contract: every run classified (zero
// EngineBug verdicts) and every sweep's own invariants intact.
func (r *Result) Gate() error {
	if n := r.Verdicts().Unclassified(); n > 0 {
		return fmt.Errorf("soak: %d unclassified (engine-bug) verdicts", n)
	}
	for _, p := range r.Phases {
		if err := p.Err(); err != nil {
			return fmt.Errorf("soak: %w", err)
		}
	}
	return nil
}

// phases are the soak's sweeps in run order, each with the name its
// journaled request carries.
var phases = []struct {
	name string
	kind sweep.Kind
}{
	{"faultcampaign", harness.Campaign.Kind()},
	{"difftest", difftest.Oracle.Kind()},
}

// soakReq is a phase job's request spec, journaled verbatim on accept
// and matched byte-for-byte on resume.
type soakReq struct {
	Soak  string `json:"soak"` // "faultcampaign" | "difftest"
	Seeds int    `json:"seeds"`
}

// openPhase finds the pending journal job of a matching request — its
// id and durable shard prefix — or admits a new one.
func openPhase(st *store.Store, state *store.State, name string, seeds int) (id uint64, done []json.RawMessage, err error) {
	req, err := json.Marshal(soakReq{Soak: name, Seeds: seeds})
	if err != nil {
		return 0, nil, err
	}
	for _, pend := range state.Pending {
		if bytes.Equal(pend.Req, req) {
			return pend.ID, pend.Shards, nil
		}
	}
	state.MaxID++
	return state.MaxID, nil, st.AcceptJob(state.MaxID, req, "soak")
}

// Run executes the sweep: each phase in turn, streaming per-shard
// progress to progress (nil: silent) and every summary plus the merged
// verdict tally to out. With opts.Dir set, each phase is one journaled
// job whose merged shard prefix is checkpointed at opts.Every and
// recovered on resume. The returned Result is complete even when
// Gate() fails; the error is non-nil only when a sweep aborted (context
// cancelled, store I/O failure) — the caller applies Gate separately so
// a failing sweep still reports.
func Run(ctx context.Context, opts Options, progress, out io.Writer) (*Result, error) {
	if opts.Seeds <= 0 {
		opts.Seeds = 10_000
	}
	if opts.Every <= 0 {
		opts.Every = 64
	}

	var (
		st    *store.Store
		state = &store.State{}
	)
	if opts.Dir != "" {
		var err error
		st, state, err = store.Open(opts.Dir, store.Options{})
		if err != nil {
			return nil, err
		}
		defer st.Close()
	}

	o := sweep.Options{
		Seeds: opts.Seeds, Workers: opts.Workers, Pool: &core.MachinePool{},
		Progress: progress, Every: opts.Every,
	}
	res := &Result{}
	ids := make([]uint64, len(phases))
	for i, ph := range phases {
		var (
			done []json.RawMessage
			save func(prefix []json.RawMessage) error
		)
		if st != nil {
			var err error
			if ids[i], done, err = openPhase(st, state, ph.name, opts.Seeds); err != nil {
				return nil, err
			}
			save = st.Checkpoint(ids[i], len(done))
		}
		r, err := ph.kind.Resume(ctx, o, done, save)
		if err != nil {
			return nil, err
		}
		fmt.Fprint(out, r.Summary())
		res.Phases = append(res.Phases, r)
	}

	// Finish the jobs only now: a kill during a later phase keeps the
	// earlier ones pending with their complete shard prefix, so resume
	// replays them from the journal instead of re-running them.
	if st != nil {
		for i, r := range res.Phases {
			errText := ""
			if r.Err() != nil {
				errText = "soak phase failed"
			}
			if err := st.FinishJob(ids[i], errText == "", r.Summary(), errText); err != nil {
				return nil, err
			}
		}
	}

	v := res.Verdicts()
	fmt.Fprintf(out, "soak: %d seeds x %d engines, verdicts:\n", opts.Seeds, len(phases))
	for k := verdict.Kind(0); k < verdict.NumKinds; k++ {
		fmt.Fprintf(out, "  %-16s %d\n", k, v[k])
	}
	return res, nil
}
