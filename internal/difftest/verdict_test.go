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

// TestRunBudgetsFromRenderedSource pins every budget a run uses to the
// one formula over the program's unmutated source, now that runs count
// the source they already rendered: seeds 0–199 in every mode, plain
// and mutated, and a padded program whose budget is above the floor,
// where one miscounted line would move it. The mutated source runs one
// instruction line more than it is budgeted for.
func TestRunBudgetsFromRenderedSource(t *testing.T) {
	progs := []*progen.Program{bigProgram()}
	for seed := int64(0); seed < 200; seed++ {
		progs = append(progs, progen.Generate(seed))
	}
	for _, p := range progs {
		for _, mode := range Modes {
			want := progen.RunBudget(progen.CountInsts(p.Source(mode, false)), mode)
			for _, mutate := range []bool{false, true} {
				if got := SourceBudget(p.Source(mode, mutate), mutate, mode); got != want {
					t.Fatalf("seed %d mode %s mutate=%v: budget %d, want %d", p.Seed, mode, mutate, got, want)
				}
			}
		}
	}
	p := progs[0]
	if got, want := progen.CountInsts(p.Source(core.ModeFast, true)), p.EmittedInsts(core.ModeFast)+1; got != want {
		t.Errorf("mutated source has %d instruction lines, want %d", got, want)
	}
	pool := &core.MachinePool{}
	for _, mutate := range []bool{false, true} {
		r := runMode(pool, p, core.ModeFast, mutate)
		if want := BudgetFor(p, core.ModeFast); r.Budget != want {
			t.Errorf("mutate=%v: run budget %d, want %d", mutate, r.Budget, want)
		}
	}
}

// TestClassifyVerdicts pins the shard taxonomy: divergences are always
// EngineBug (the oracle has no injector, so nothing is attributable),
// a clean shard above the budget floor is BudgetScaled — visible,
// never silent — and everything else is Clean.
func TestClassifyVerdicts(t *testing.T) {
	// The runs carry just the budgets classify reads.
	budgets := func(p *progen.Program) []ModeRun {
		var runs []ModeRun
		for _, mode := range Modes {
			runs = append(runs, ModeRun{Mode: mode, Budget: BudgetFor(p, mode)})
		}
		return runs
	}
	small, big := budgets(progen.Generate(0)), budgets(bigProgram())

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
// scaled bound is what keeps it from being silently truncated at 3M —
// and its shard is classified from the budgets those runs used.
func TestBudgetScaledRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 12k-instruction pad in all three modes")
	}
	pool := &core.MachinePool{}
	shard := CheckProgram(pool, bigProgram())
	for _, d := range shard.Divergences {
		t.Errorf("divergence: %s", d)
	}
	if shard.Verdict != verdict.BudgetScaled {
		t.Errorf("verdict = %s, want budget-scaled from the runs' budgets", shard.Verdict)
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
