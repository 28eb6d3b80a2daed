package difftest

import (
	"strings"
	"testing"

	"uexc/internal/core"
	"uexc/internal/progen"
	"uexc/internal/verdict"
)

// bigProgram returns a generated program padded with enough extra
// instructions that every mode's scaled budget exceeds the legacy
// flat floor.
func bigProgram() *progen.Program {
	p := progen.Generate(0)
	p.Extra = strings.Repeat("addiu zero, zero, 0\n", 12_000)
	return p
}

// TestBudgetForFloor: a normal generated program stays under the
// legacy flat budget in every mode — the floor dominates, so existing
// seeds keep the exact bound they always had.
func TestBudgetForFloor(t *testing.T) {
	p := progen.Generate(0)
	for _, mode := range Modes {
		if got := BudgetFor(p, mode); got != Budget {
			t.Errorf("mode %s: BudgetFor = %d, want floor %d", mode, got, Budget)
		}
	}
}

// TestBudgetForScalesAboveFloor: a program large enough to outgrow the
// floor gets the scaled formula over its emitted instructions, and the
// per-mode multipliers order the way delivery cost does: the full Unix
// signal round trip outweighs the kernel fast path, which outweighs
// hardware vectoring.
func TestBudgetForScalesAboveFloor(t *testing.T) {
	p := bigProgram()
	for _, mode := range Modes {
		got := BudgetFor(p, mode)
		if got <= Budget {
			t.Fatalf("mode %s: test program too small (%d)", mode, got)
		}
		if want := progen.RunBudget(p.EmittedInsts(mode), mode); got != want {
			t.Errorf("mode %s: BudgetFor = %d, want %d", mode, got, want)
		}
	}
	u := BudgetFor(p, core.ModeUltrix)
	f := BudgetFor(p, core.ModeFast)
	h := BudgetFor(p, core.ModeHardware)
	if !(u > f && f > h) {
		t.Errorf("multiplier ordering violated: ultrix=%d fast=%d hardware=%d", u, f, h)
	}
}

// TestClassifyVerdicts pins the shard taxonomy: divergences are always
// EngineBug (the oracle has no injector, so nothing is attributable),
// a clean shard above the budget floor is BudgetScaled — visible,
// never silent — and everything else is Clean.
func TestClassifyVerdicts(t *testing.T) {
	small, big := progen.Generate(0), bigProgram()

	s := Shard{Divergences: []string{"gpr[3] differs"}}
	classify(small, &s)
	if s.Verdict != verdict.EngineBug {
		t.Errorf("diverged shard: verdict = %s, want engine-bug", s.Verdict)
	}

	s = Shard{}
	classify(big, &s)
	if s.Verdict != verdict.BudgetScaled {
		t.Errorf("big clean shard: verdict = %s, want budget-scaled", s.Verdict)
	}

	s = Shard{}
	classify(small, &s)
	if s.Verdict != verdict.Clean {
		t.Errorf("small clean shard: verdict = %s, want clean", s.Verdict)
	}
}

// TestBudgetScaledRunsClean: a program whose scaled budget exceeds the
// floor must still run to architectural agreement in every mode — the
// scaled bound is what keeps it from being silently truncated at 3M.
func TestBudgetScaledRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 12k-instruction pad in all three modes")
	}
	pool := &core.MachinePool{}
	p := bigProgram()
	divs, _ := CheckProgram(pool, p)
	for _, d := range divs {
		t.Errorf("divergence: %s", d)
	}
}

// TestShardLineTagsVerdicts: non-clean verdicts are visible in the
// stream; the clean line is byte-identical to the pre-verdict format.
func TestShardLineTagsVerdicts(t *testing.T) {
	if got := ShardLine(3, Shard{}); got != "seed 3      ok\n" {
		t.Errorf("clean line = %q", got)
	}
	got := ShardLine(4, Shard{Verdict: verdict.BudgetScaled})
	if !strings.Contains(got, "ok [budget-scaled]") {
		t.Errorf("scaled line = %q", got)
	}
	got = ShardLine(5, Shard{Divergences: []string{"x"}, Verdict: verdict.EngineBug})
	if !strings.Contains(got, "DIVERGED (1) [engine-bug]") {
		t.Errorf("diverged line = %q", got)
	}
}
