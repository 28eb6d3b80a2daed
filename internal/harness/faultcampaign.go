package harness

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"uexc/internal/arch"
	"uexc/internal/core"
	"uexc/internal/cpu"
	"uexc/internal/faultinject"
	"uexc/internal/kernel"
	"uexc/internal/progen"
	"uexc/internal/sweep"
	"uexc/internal/verdict"
)

// campaignBudgetFor is the campaign program's run bound: the one
// scaled formula, progen.RunBudget, over the program's instruction
// count. Reaching it means either an engine bug or an injected
// corruption that defeated the program's own runaway bound — the
// verdict layer tells the two apart. The fixed campaign program is
// small, so the floor dominates today; the formula keeps the bound
// honest if the program grows.
func campaignBudgetFor(mode core.Mode) uint64 { return campaignBudgets[mode] }

// campaignBudgets holds campaignBudgetFor's bound per mode. The
// campaign texts are constants, so each is scanned once per process
// rather than once per run.
var campaignBudgets = func() (b [3]uint64) {
	for _, mode := range campaignModes {
		b[mode] = progen.RunBudget(progen.CountInsts(CampaignProgram(mode)), mode)
	}
	return b
}()

// RequiredCoverage lists the event/behaviour categories a campaign
// must exercise at least once to be considered a meaningful sweep.
var RequiredCoverage = []string{
	"tlb-flip",
	"spurious-exception",
	"uex-recursion",
	"fast-ultrix-fallback",
	"watchdog-livelock",
}

// CampaignResult aggregates a fault-injection campaign.
type CampaignResult struct {
	Seeds int
	Runs  int

	// Exercised counts injected events by kind plus the hardening
	// behaviours they provoked (recursion escalations, fallbacks,
	// kills, TLB scrubs, watchdog detections).
	Exercised map[string]uint64
	// Outcomes tallies runs by outcome class.
	Outcomes map[string]int
	// Failures lists determinism breaks, invariant violations, panics,
	// and unattributable budget exhaustions; empty means the campaign
	// passed.
	Failures []string

	// Verdicts tallies the typed per-run classifications (first run of
	// each replay pair; DESIGN.md §14).
	Verdicts verdict.Counts
	// Classified lists the runs that carry a non-failing non-clean
	// verdict (KnownDivergent, BudgetScaled) with their witness detail,
	// in campaign order — visible, but not failures.
	Classified []string

	// Fingerprints records each seed×mode run's determinism fingerprint
	// in campaign order (seed-major, mode-minor), so two campaigns —
	// e.g. a serial and a parallel run over the same seeds — can be
	// compared for byte-identical machine behaviour, not just identical
	// summaries.
	Fingerprints []string
}

// Err reports whether the campaign passed: nil with no failures and
// every required category exercised, otherwise the campaign's failure.
func (r *CampaignResult) Err() error {
	if missing := r.MissingCoverage(); len(r.Failures) > 0 || len(missing) > 0 {
		return fmt.Errorf("fault campaign failed (%d failures, missing coverage: %v)", len(r.Failures), missing)
	}
	return nil
}

// Counts returns the campaign's verdict tally.
func (r *CampaignResult) Counts() verdict.Counts { return r.Verdicts }

// MissingCoverage returns the required categories never exercised.
func (r *CampaignResult) MissingCoverage() []string {
	var missing []string
	for _, k := range RequiredCoverage {
		if r.Exercised[k] == 0 {
			missing = append(missing, k)
		}
	}
	return missing
}

// Summary renders the campaign report.
func (r *CampaignResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault campaign: %d seeds x 3 modes x 2 replays = %d runs\n", r.Seeds, r.Runs)
	keys := make([]string, 0, len(r.Exercised))
	for k := range r.Exercised {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("exercised:\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-24s %d\n", k, r.Exercised[k])
	}
	outs := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		outs = append(outs, k)
	}
	sort.Strings(outs)
	b.WriteString("outcomes:\n")
	for _, k := range outs {
		fmt.Fprintf(&b, "  %-24s %d\n", k, r.Outcomes[k])
	}
	b.WriteString("verdicts:\n")
	for k := verdict.Kind(0); k < verdict.NumKinds; k++ {
		fmt.Fprintf(&b, "  %-24s %d\n", k, r.Verdicts[k])
	}
	if len(r.Classified) > 0 {
		b.WriteString("classified (non-failing):\n")
		for _, c := range r.Classified {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	if missing := r.MissingCoverage(); len(missing) > 0 {
		fmt.Fprintf(&b, "MISSING COVERAGE: %s\n", strings.Join(missing, ", "))
	}
	if len(r.Failures) > 0 {
		fmt.Fprintf(&b, "FAILURES (%d):\n", len(r.Failures))
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	} else {
		b.WriteString("zero panics, zero invariant violations, deterministic per-seed outcomes\n")
	}
	return b.String()
}

// RunDigest is one run's digest. Every field is exported and
// JSON-tagged because shards are journaled verbatim by the durable
// job store (DESIGN.md §12): a digest written by one
// process must fold identically when replayed by the next.
type RunDigest struct {
	Fingerprint string                       `json:"fp"`
	Outcome     string                       `json:"outcome"`
	Exercised   [faultinject.NumKinds]uint64 `json:"exercised"`
	Stats       kernel.Stats                 `json:"stats"`
	Failures    []string                     `json:"failures,omitempty"`

	// Verdict is the run's typed classification (DESIGN.md §14); the
	// zero value (Clean) is omitted so digests journaled before the
	// verdict layer replay unchanged. VerdictDetail carries the witness
	// for non-clean verdicts — e.g. the injected-corruption events that
	// attribute a budget exhaustion to KnownDivergent.
	Verdict       verdict.Kind `json:"verdict,omitempty"`
	VerdictDetail string       `json:"verdict_detail,omitempty"`
}

// CampaignShard is one shard of a campaign: a seed×mode pair run
// twice (run + determinism replay), or one livelock probe. Shards are
// independent — each runs on its own self-contained machine — so the
// engine may execute them in any order on any worker, and a shard's
// digest is a deterministic function of (seed, mode) alone, which is
// what makes journaled shards resumable.
type CampaignShard struct {
	First        RunDigest `json:"first,omitempty"` // seed×mode shards
	Again        RunDigest `json:"again,omitempty"`
	ProbeOutcome string    `json:"probe_outcome,omitempty"` // livelock-probe shards
	ProbeFail    string    `json:"probe_fail,omitempty"`
}

// Campaign is the fault-injection campaign as a sweep (DESIGN.md §6,
// §8): it replays each seed's fault plan under all three delivery
// modes, each run twice, asserting determinism (identical fingerprints
// per replay) and the DESIGN.md §6 invariants after every injected
// event, plus one watchdog livelock probe per mode. Machines are
// recycled through the sweep's pool, so a campaign allocates about one
// address space per worker rather than one per run.
var Campaign = sweep.Sweep[CampaignShard]{
	Name:   "fault campaign",
	Shards: CampaignShards,
	Run:    RunShard,
	Line:   ShardLine,
	Fold:   fold,
}

// campaignModes is the fixed mode order of a campaign's shard layout.
var campaignModes = []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware}

// CampaignShards returns the task count of a `seeds` campaign. Task
// layout: [0, seeds×3) are the seed×mode replay pairs in seed-major
// order; the last three are the per-mode watchdog probes (a deliberate
// pure state cycle — no stores, no new code — that only the livelock
// detector can classify).
func CampaignShards(seeds int) int {
	return seeds*len(campaignModes) + len(campaignModes)
}

// ShardLine renders shard i's progress line from its digest — the
// single formatting point for live shards and journaled shards
// replayed on resume, so both are byte-identical by construction.
func ShardLine(seeds, i int, t CampaignShard) string {
	if i < seeds*len(campaignModes) {
		seed, mode := i/len(campaignModes), campaignModes[i%len(campaignModes)]
		outcome := t.First.Outcome
		if t.First.Verdict != verdict.Clean {
			outcome += " [" + t.First.Verdict.String() + "]"
		}
		return fmt.Sprintf("%-28s %s\n",
			fmt.Sprintf("seed %d mode %s:", seed, mode), outcome)
	}
	mode := campaignModes[i-seeds*len(campaignModes)]
	return fmt.Sprintf("%-28s %s\n",
		fmt.Sprintf("livelock probe %s:", mode), t.ProbeOutcome)
}

// RunShard executes shard i of a `seeds`-sized campaign on a pooled
// machine and returns its digest. It is the single shard-execution
// point: the Campaign sweep runs every shard through it, so a digest
// is a pure function of (seeds, i) wherever it runs.
func RunShard(pool *core.MachinePool, seeds, i int) CampaignShard {
	var t CampaignShard
	if i < seeds*len(campaignModes) {
		seed, mode := i/len(campaignModes), campaignModes[i%len(campaignModes)]
		t.First = campaignRun(pool, int64(seed), mode)
		t.Again = campaignRun(pool, int64(seed), mode)
	} else {
		mode := campaignModes[i-seeds*len(campaignModes)]
		t.ProbeOutcome, t.ProbeFail = livelockProbe(pool, mode)
	}
	return t
}

// fold merges the campaign's shard digests strictly in task-index
// order, reproducing exactly the accumulation the serial loop performed.
func fold(seeds int, tasks []CampaignShard) sweep.Result {
	res := &CampaignResult{
		Seeds:     seeds,
		Exercised: make(map[string]uint64),
		Outcomes:  make(map[string]int),
	}
	modes := campaignModes
	for i := 0; i < seeds*len(modes); i++ {
		seed, mode := i/len(modes), modes[i%len(modes)]
		first, again := tasks[i].First, tasks[i].Again
		res.Runs += 2

		tag := fmt.Sprintf("seed %d mode %s", seed, mode)
		for _, f := range first.Failures {
			res.Failures = append(res.Failures, tag+": "+f)
		}
		for _, f := range again.Failures {
			res.Failures = append(res.Failures, tag+" (replay): "+f)
		}
		if first.Fingerprint != again.Fingerprint {
			res.Failures = append(res.Failures,
				fmt.Sprintf("%s: nondeterministic (fingerprints differ:\n  %s\n  %s)",
					tag, first.Fingerprint, again.Fingerprint))
		}
		res.Fingerprints = append(res.Fingerprints, first.Fingerprint)

		// Count exercise from the first run only (the replay is a
		// determinism witness, not extra coverage).
		for k := faultinject.Kind(0); k < faultinject.NumKinds; k++ {
			res.Exercised[k.String()] += first.Exercised[k]
		}
		res.Exercised["uex-recursion"] += first.Stats.UEXRecursions
		res.Exercised["fast-ultrix-fallback"] += first.Stats.FastFallbacks
		res.Exercised["recursion-kill"] += first.Stats.RecursionKills
		res.Exercised["tlb-scrub"] += first.Stats.TLBScrubs
		res.Outcomes[first.Outcome]++

		// Verdicts count the first run of each replay pair; the replay is
		// a determinism witness, not a second classification.
		res.Verdicts.Add(first.Verdict)
		switch first.Verdict {
		case verdict.KnownDivergent, verdict.BudgetScaled:
			res.Classified = append(res.Classified, tag+": "+first.VerdictDetail)
		}
	}
	for j := 0; j < len(modes); j++ {
		t := tasks[seeds*len(modes)+j]
		res.Runs++
		res.Outcomes[t.ProbeOutcome]++
		if t.ProbeFail != "" {
			res.Failures = append(res.Failures,
				fmt.Sprintf("livelock probe mode %s: %s", modes[j], t.ProbeFail))
		} else {
			res.Exercised["watchdog-livelock"]++
		}
	}
	return res
}

// testHookPostLoad, when non-nil, runs after the program loads in each
// campaign run and livelock probe — the test seam for the
// recover-and-classify contract: a hook that panics must surface as a
// recovered failure (an EngineBug verdict for a run), never take the
// process down.
var testHookPostLoad func(m *core.Machine)

// campaignRun executes one seeded, injected scenario and digests it.
// Go panics are converted into failures: the machine must degrade
// through typed errors, never take the simulator down. The machine
// comes from (and, barring a panic, returns to) pool; a machine that
// panicked mid-run is dropped rather than recycled, since its state is
// no longer trustworthy.
func campaignRun(pool *core.MachinePool, seed int64, mode core.Mode) (rep RunDigest) {
	var (
		m   *core.Machine
		err error
	)
	healthy := false
	defer func() {
		if r := recover(); r != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("panic: %v", r))
			rep.Outcome = "panic"
			rep.Fingerprint = "panic"
			healthy = false // drop the machine: its state is untrustworthy
		}
		// Any failure — recovered panic, invariant violation, boot/load
		// error, unattributable budget exhaustion — is an engine bug,
		// overriding a provisional KnownDivergent: a corrupted run may
		// diverge, but it must never break an invariant.
		if len(rep.Failures) > 0 {
			rep.Verdict = verdict.EngineBug
			if rep.VerdictDetail == "" {
				rep.VerdictDetail = rep.Failures[0]
			}
		}
		if healthy {
			pool.Put(m)
		}
	}()

	m, err = pool.Get()
	if err != nil {
		rep.Failures = append(rep.Failures, "boot: "+err.Error())
		return rep
	}
	healthy = true
	inj := faultinject.Attach(m.K, seed)
	if err := m.LoadProgram(CampaignProgram(mode)); err != nil {
		rep.Failures = append(rep.Failures, "load: "+err.Error())
		return rep
	}
	if testHookPostLoad != nil {
		testHookPostLoad(m)
	}
	if mode == core.ModeHardware {
		// Claim Mod only: TLB refills must keep reaching the kernel's
		// UTLB vector (the user handler cannot build translations).
		m.EnableHardwareDelivery(1 << arch.ExcMod)
	}

	runErr := m.Run(campaignBudgetFor(mode))

	// Final invariant sweep after the run settles.
	if err := inj.Checker.Check(); err != nil {
		inj.Violations = append(inj.Violations, fmt.Errorf("final sweep: %w", err))
	}
	for _, v := range inj.Violations {
		rep.Failures = append(rep.Failures, "invariant: "+v.Error())
	}

	switch {
	case runErr == nil:
		rep.Outcome = "survived"
	case errors.Is(runErr, cpu.ErrLivelock):
		rep.Outcome = "livelock detected"
	case errors.Is(runErr, kernel.ErrRecursion):
		rep.Outcome = "recursion kill"
	case errors.Is(runErr, kernel.ErrKernelPanic):
		rep.Outcome = "kernel panic"
		rep.Failures = append(rep.Failures, "kernel panic: "+runErr.Error())
	case errors.Is(runErr, cpu.ErrBudget):
		rep.Outcome = "budget exhausted"
		if w := corruptionWitness(inj.Exercised); w != "" {
			// Injected state corruption (seed 2227's class) can defeat the
			// program's own runaway bound, making the fault loop genuinely
			// infinite; with the witness in the digest this is a classified
			// divergence, not an engine bug.
			rep.Verdict = verdict.KnownDivergent
			rep.VerdictDetail = "budget exhausted under injected corruption (" + w + ")"
		} else {
			rep.Failures = append(rep.Failures, "budget exhausted: "+runErr.Error())
		}
	case strings.Contains(runErr.Error(), "process exited with status"):
		rep.Outcome = "signal termination"
	default:
		rep.Outcome = "error"
		rep.Failures = append(rep.Failures, "unexpected error: "+runErr.Error())
	}

	rep.Exercised = inj.Exercised
	rep.Stats = m.K.Stats

	var events strings.Builder
	for _, e := range inj.Events {
		fmt.Fprintf(&events, "[%d %s %s]", e.Inst, e.Kind, e.Detail)
	}
	errText := ""
	if runErr != nil {
		errText = runErr.Error()
	}
	rep.Fingerprint = fmt.Sprintf("outcome=%s err=%q console=%q stats=%+v cycles=%d insts=%d events=%s",
		rep.Outcome, errText, m.K.Console(), m.K.Stats, m.CPU().Cycles, m.CPU().Insts, events.String())
	return rep
}

// corruptionWitness renders the injected state-corruption events that
// can defeat a program's own runaway bound. Only MemCorrupt, TLBFlip,
// and TLBStaleASID qualify — they rewrite memory or translations
// behind the program's back — whereas Spurious, Storm, and
// HandlerFault merely deliver extra exceptions through architected
// paths, so a failure under those alone is still an engine bug.
func corruptionWitness(ex [faultinject.NumKinds]uint64) string {
	var parts []string
	for _, k := range []faultinject.Kind{
		faultinject.MemCorrupt, faultinject.TLBFlip, faultinject.TLBStaleASID,
	} {
		if ex[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s x%d", k, ex[k]))
		}
	}
	return strings.Join(parts, ", ")
}

// livelockProbe runs the deliberate-livelock program with no injector
// and expects the CPU watchdog to stop it with a typed LivelockError.
// As in campaignRun, a Go panic becomes a failure and the machine that
// panicked is dropped rather than returned to pool.
func livelockProbe(pool *core.MachinePool, mode core.Mode) (outcome, failure string) {
	m, err := pool.Get()
	if err != nil {
		return "error", "boot: " + err.Error()
	}
	defer func() {
		if r := recover(); r != nil {
			outcome, failure = "panic", fmt.Sprintf("panic: %v", r)
			return // drop the machine: its state is untrustworthy
		}
		pool.Put(m)
	}()
	if err := m.LoadProgram(livelockProg()); err != nil {
		return "error", "load: " + err.Error()
	}
	if testHookPostLoad != nil {
		testHookPostLoad(m)
	}
	if mode == core.ModeHardware {
		m.EnableHardwareDelivery(1 << arch.ExcMod)
	}
	runErr := m.Run(campaignBudgetFor(mode))
	var ll *cpu.LivelockError
	if errors.As(runErr, &ll) {
		return "livelock detected", ""
	}
	return "error", fmt.Sprintf("want LivelockError, got %v", runErr)
}
