package progen

import (
	"strings"
	"testing"

	"uexc/internal/asm"
	"uexc/internal/core"
	"uexc/internal/kernel"
	"uexc/internal/userrt"
)

var allModes = []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware}

// TestDeterministic: the same seed must expand to byte-identical source
// in every mode — the oracle's replay discipline depends on it.
func TestDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := Generate(seed), Generate(seed)
		if len(a.Episodes) != len(b.Episodes) {
			t.Fatalf("seed %d: episode counts differ", seed)
		}
		for _, mode := range allModes {
			if a.Source(mode, false) != b.Source(mode, false) {
				t.Fatalf("seed %d mode %s: sources differ across generations", seed, mode)
			}
		}
	}
}

// TestEpisodeBounds: programs stay within the documented grammar — 4 to
// 12 episodes, at most one recursion probe.
func TestEpisodeBounds(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := Generate(seed)
		if n := len(p.Episodes); n < 4 || n > 12 {
			t.Errorf("seed %d: %d episodes, want 4..12", seed, n)
		}
		recs := 0
		for _, k := range p.Episodes {
			if k == KindRecursion {
				recs++
			}
			if k < 0 || k >= NumKinds {
				t.Errorf("seed %d: invalid kind %d", seed, int(k))
			}
		}
		if recs > 1 {
			t.Errorf("seed %d: %d recursion episodes, want <= 1", seed, recs)
		}
	}
}

// TestAssembles: every variant of the first 50 seeds must be valid
// internal/asm source when linked against the user runtime.
func TestAssembles(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p := Generate(seed)
		for _, mode := range allModes {
			src := userrt.Prelude() + p.Source(mode, false)
			if _, err := asm.Assemble(src, kernel.UserTextBase); err != nil {
				t.Fatalf("seed %d mode %s does not assemble: %v", seed, mode, err)
			}
		}
	}
}

// TestKindCoverage: across a modest seed range every episode kind must
// appear — a generator that silently stops emitting a kind hollows out
// the oracle.
func TestKindCoverage(t *testing.T) {
	var seen [NumKinds]int
	for seed := int64(0); seed < 100; seed++ {
		for _, k := range Generate(seed).Episodes {
			seen[k]++
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		if seen[k] == 0 {
			t.Errorf("kind %s never generated in 100 seeds", k)
		}
	}
}

// TestMutationChangesHandler: the mutated variant must differ exactly
// in the handler policy (the oracle self-test injects it into a single
// mode and asserts detection).
func TestMutationChangesHandler(t *testing.T) {
	p := Generate(7)
	for _, mode := range allModes {
		clean, bad := p.Source(mode, false), p.Source(mode, true)
		if clean == bad {
			t.Fatalf("mode %s: mutation did not change the source", mode)
		}
		if !strings.Contains(bad, "addiu t5, a0, 32") {
			t.Fatalf("mode %s: mutated cause-offset sequence missing", mode)
		}
		src := userrt.Prelude() + bad
		if _, err := asm.Assemble(src, kernel.UserTextBase); err != nil {
			t.Fatalf("mode %s: mutated source does not assemble: %v", mode, err)
		}
	}
}

// TestModeVariantsShareWorkload: the mode stanzas must be the only
// difference — every episode label appears identically in all three
// variants, and the data stanza pins the oracle regions.
func TestModeVariantsShareWorkload(t *testing.T) {
	p := Generate(11)
	for i := range p.Episodes {
		label := "dt_ep" + itoa(i) + ":"
		for _, mode := range allModes {
			if !strings.Contains(p.Source(mode, false), label) {
				t.Errorf("mode %s: missing episode label %q", mode, label)
			}
		}
	}
	for _, mode := range allModes {
		src := p.Source(mode, false)
		for _, want := range []string{"dt_data:", "dt_arena:", "dt_policy:", "dt_sighandler:"} {
			if !strings.Contains(src, want) {
				t.Errorf("mode %s: missing %q", mode, want)
			}
		}
	}
	if !strings.Contains(p.Source(core.ModeHardware, false), "dt_tera_handler:") {
		t.Error("hardware variant missing the tera wrapper")
	}
	if strings.Contains(p.Source(core.ModeUltrix, false), "dt_tera_handler:") {
		t.Error("ultrix variant should not carry the tera wrapper")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestRunBudget pins the one scaled run-budget formula: small programs
// get exactly the floor, large ones exactly base + insts × the mode's
// multiplier, and the multipliers order the way delivery cost does —
// Ultrix > FastExc > Hardware.
func TestRunBudget(t *testing.T) {
	const big = 20_000
	var scaled []uint64
	for _, mode := range allModes {
		if got := RunBudget(100, mode); got != BudgetFloor {
			t.Errorf("mode %s: RunBudget(100) = %d, want floor %d", mode, got, BudgetFloor)
		}
		got := RunBudget(big, mode)
		if want := budgetBase + big*budgetPerInst(mode); got != want || got <= BudgetFloor {
			t.Errorf("mode %s: RunBudget(%d) = %d, want %d above the floor", mode, big, got, want)
		}
		scaled = append(scaled, got)
	}
	if !(scaled[0] > scaled[1] && scaled[1] > scaled[2]) {
		t.Errorf("multiplier ordering violated: ultrix=%d fast=%d hardware=%d", scaled[0], scaled[1], scaled[2])
	}
}
