package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"uexc/internal/core"
	"uexc/internal/progen"
	"uexc/internal/verdict"
)

// The three seeds the 0–10k soak originally tripped over, pinned as
// regressions at the campaignRun level (the full-campaign path the
// soak sweeps). 820 and 2223 are fixed outright; 2227 is a genuine
// injected-corruption divergence and must carry its typed verdict.

// TestSeed820HardwareIsClean: mem-corrupt flips bit 30 of the saved
// user SP, so sendsig's frame copyout lands on an unmappable address.
// The kernel must kill the process like Unix does (SIGSEGV on an
// unwritable signal stack), not abort the machine.
func TestSeed820HardwareIsClean(t *testing.T) {
	pool := &core.MachinePool{}
	rep := campaignRun(pool, 820, core.ModeHardware)
	if len(rep.Failures) > 0 {
		t.Fatalf("failures: %v", rep.Failures)
	}
	if rep.Outcome != "signal termination" {
		t.Errorf("outcome = %q, want signal termination", rep.Outcome)
	}
	if rep.Verdict != verdict.Clean {
		t.Errorf("verdict = %s, want clean", rep.Verdict)
	}
}

// TestSeed2223FastIsClean: a corrupted user handler executes a stray
// sigreturn whose fabricated sigcontext carries CU1 in Status; the
// next exception used to hit the first-level handler's FP-ownership
// panic. sigreturn now sanitizes privileged Status bits, so the run
// must end in an ordinary signal termination.
func TestSeed2223FastIsClean(t *testing.T) {
	pool := &core.MachinePool{}
	rep := campaignRun(pool, 2223, core.ModeFast)
	if len(rep.Failures) > 0 {
		t.Fatalf("failures: %v", rep.Failures)
	}
	if rep.Outcome == "kernel panic" || rep.Outcome == "panic" {
		t.Fatalf("outcome = %q", rep.Outcome)
	}
	if rep.Verdict != verdict.Clean {
		t.Errorf("verdict = %s, want clean", rep.Verdict)
	}
}

// TestSeed2227HardwareIsKnownDivergent: mem-corrupt rewrites the
// signal handler's counter-store offset, defeating the program's own
// 64-entry runaway bound — the fault loop is genuinely infinite and
// budget exhaustion is the correct deterministic stop. The run must be
// classified KnownDivergent with the corruption witness in the detail,
// and must NOT count as a failure.
func TestSeed2227HardwareIsKnownDivergent(t *testing.T) {
	pool := &core.MachinePool{}
	rep := campaignRun(pool, 2227, core.ModeHardware)
	if len(rep.Failures) > 0 {
		t.Fatalf("failures: %v", rep.Failures)
	}
	if rep.Outcome != "budget exhausted" {
		t.Errorf("outcome = %q, want budget exhausted", rep.Outcome)
	}
	if rep.Verdict != verdict.KnownDivergent {
		t.Fatalf("verdict = %s, want known-divergent", rep.Verdict)
	}
	if !strings.Contains(rep.VerdictDetail, "mem-corrupt") {
		t.Errorf("detail %q does not name the corruption witness", rep.VerdictDetail)
	}
}

// TestRecoverAndClassifyPanic: a Go panic anywhere inside a campaign
// run or a livelock probe — in any mode — must surface as a recovered
// failure (an EngineBug verdict for a run) and a campaign failure,
// never a process crash, and the machine that panicked must never go
// back to the pool. This is the seam the soak gate relies on:
// unclassified means a bug report, not a dead sweep.
func TestRecoverAndClassifyPanic(t *testing.T) {
	testHookPostLoad = func(m *core.Machine) { panic("injected test panic") }
	defer func() { testHookPostLoad = nil }()

	for _, mode := range campaignModes {
		pool := &core.MachinePool{}
		rep := campaignRun(pool, 0, mode)
		if rep.Outcome != "panic" {
			t.Errorf("mode %s: outcome = %q, want panic", mode, rep.Outcome)
		}
		if rep.Verdict != verdict.EngineBug {
			t.Errorf("mode %s: verdict = %s, want engine-bug", mode, rep.Verdict)
		}
		if len(rep.Failures) == 0 || !strings.Contains(rep.Failures[0], "injected test panic") {
			t.Errorf("mode %s: failures = %v", mode, rep.Failures)
		}
		outcome, fail := livelockProbe(pool, mode)
		if outcome != "panic" || fail != "panic: injected test panic" {
			t.Errorf("mode %s: probe = %q, %q; want panic, \"panic: injected test panic\"", mode, outcome, fail)
		}
		if puts := pool.Stats().Puts; puts != 0 {
			t.Errorf("mode %s: %d panicked machines returned to the pool", mode, puts)
		}
	}

	// Campaign level: the sweep completes, tallies the EngineBug
	// verdicts, and fails via Err() — the process stayed up.
	res := runCampaign(t, 1, 2)
	if res.Verdicts[verdict.EngineBug] != len(campaignModes) {
		t.Errorf("engine-bug verdicts = %d, want %d\n%s",
			res.Verdicts[verdict.EngineBug], len(campaignModes), res.Summary())
	}
	if res.Err() == nil {
		t.Error("campaign with panicking runs passed")
	}
	for _, mode := range campaignModes {
		want := fmt.Sprintf("livelock probe mode %s: panic: injected test panic", mode)
		if !slices.Contains(res.Failures, want) {
			t.Errorf("failures missing %q:\n%s", want, res.Summary())
		}
	}
	if !strings.Contains(res.Summary(), "engine-bug") {
		t.Errorf("summary missing verdict tally:\n%s", res.Summary())
	}
}

// TestCampaignBudgetScalesWithProgram: the per-run bound never drops
// below the legacy flat floor, and the per-mode multipliers order the
// way delivery cost does (full signal round trip > kernel fast path >
// hardware vectoring), so if the campaign program ever grows past the
// floor the Ultrix bound grows fastest.
func TestCampaignBudgetScalesWithProgram(t *testing.T) {
	for _, mode := range campaignModes {
		if got := campaignBudgetFor(mode); got < progen.BudgetFloor {
			t.Errorf("mode %s: budget %d below floor %d", mode, got, progen.BudgetFloor)
		}
	}
}

// TestCampaignBudgetsMatchScan: the per-mode bounds computed once at
// startup are exactly what scanning each campaign text yields.
func TestCampaignBudgetsMatchScan(t *testing.T) {
	for _, mode := range campaignModes {
		want := progen.RunBudget(progen.CountInsts(CampaignProgram(mode)), mode)
		if got := campaignBudgetFor(mode); got != want {
			t.Errorf("mode %s: budget %d, scan gives %d", mode, got, want)
		}
	}
}

// TestShardLineTagsVerdicts: non-clean verdicts must be visible in the
// progress stream; clean lines must render exactly as before the
// verdict layer (resume byte-identity depends on it).
func TestShardLineTagsVerdicts(t *testing.T) {
	var s CampaignShard
	s.First.Outcome = "budget exhausted"
	s.First.Verdict = verdict.KnownDivergent
	line := ShardLine(1, 0, s)
	if !strings.Contains(line, "budget exhausted [known-divergent]") {
		t.Errorf("tagged line = %q", line)
	}
	s.First.Outcome = "survived"
	s.First.Verdict = verdict.Clean
	if got := ShardLine(1, 0, s); strings.Contains(got, "[") {
		t.Errorf("clean line carries a tag: %q", got)
	}
}
