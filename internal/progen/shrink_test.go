package progen

import (
	"strings"
	"testing"

	"uexc/internal/asm"
	"uexc/internal/core"
	"uexc/internal/kernel"
	"uexc/internal/userrt"
)

// TestWithEpisodesIdentity: keeping every episode must reproduce the
// original source byte-for-byte in every mode — the shrinker's
// baseline case, and the pin that the stanza refactor changed nothing.
func TestWithEpisodesIdentity(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := Generate(seed)
		all := make([]int, len(p.Episodes))
		for i := range all {
			all[i] = i
		}
		q := p.WithEpisodes(all)
		for _, mode := range allModes {
			if q.Source(mode, false) != p.Source(mode, false) {
				t.Fatalf("seed %d mode %s: WithEpisodes(all) changed the source", seed, mode)
			}
		}
	}
}

// TestWithEpisodesSubset: a subset keeps exactly the chosen stanzas —
// original labels intact (so a shrunk reproducer names the surviving
// episodes by their original indices) — and still assembles.
func TestWithEpisodesSubset(t *testing.T) {
	p := Generate(11)
	if len(p.Episodes) < 3 {
		t.Fatalf("seed 11 has only %d episodes", len(p.Episodes))
	}
	q := p.WithEpisodes([]int{0, 2})
	if len(q.Episodes) != 2 || q.Episodes[0] != p.Episodes[0] || q.Episodes[1] != p.Episodes[2] {
		t.Fatalf("episodes = %v", q.Episodes)
	}
	for _, mode := range allModes {
		src := q.Source(mode, false)
		if !strings.Contains(src, "dt_ep0:") || !strings.Contains(src, "dt_ep2:") {
			t.Errorf("mode %s: surviving episode labels missing", mode)
		}
		if strings.Contains(src, "dt_ep1:") {
			t.Errorf("mode %s: dropped episode still present", mode)
		}
		if _, err := asm.Assemble(userrt.Prelude()+src, kernel.UserTextBase); err != nil {
			t.Errorf("mode %s: shrunk program does not assemble: %v", mode, err)
		}
	}
}

// TestCountInsts: only instruction lines count — blanks, comments,
// labels, and assembler directives do not, and trailing comments don't
// double-count their line.
func TestCountInsts(t *testing.T) {
	src := `
# a comment
label:
	.align 4
	.word 7
	addiu t0, t0, 1   # trailing comment
	sw t0, 0(t1)

other_label:	addiu t2, t2, 2
`
	// The label-with-instruction line counts once; pure labels and
	// directives count zero.
	if got := CountInsts(src); got != 3 {
		t.Errorf("CountInsts = %d, want 3", got)
	}
}

// splitCountInsts is CountInsts as it was first written, over
// strings.Split: the reference the scanning version must match.
func splitCountInsts(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if i := strings.IndexByte(s, '#'); i >= 0 {
			s = strings.TrimSpace(s[:i])
		}
		if s == "" || s[0] == '.' || strings.HasSuffix(s, ":") {
			continue
		}
		n++
	}
	return n
}

// TestCountInstsMatchesSplit pins CountInsts to the split-based count
// on every mode's plain and mutated source of seeds 0–299, plus the
// edge texts a line scanner could miscount, and gates it at zero
// allocations.
func TestCountInstsMatchesSplit(t *testing.T) {
	for _, src := range []string{"", "\n", "nop", "nop\n", "\n\nnop", "a:\n\tnop\n\t.word 1\n# c\n  nop  "} {
		if got, want := CountInsts(src), splitCountInsts(src); got != want {
			t.Errorf("CountInsts(%q) = %d, split count %d", src, got, want)
		}
	}
	var src string
	for seed := int64(0); seed < 300; seed++ {
		p := Generate(seed)
		for _, mode := range []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware} {
			for _, mutate := range []bool{false, true} {
				src = p.Source(mode, mutate)
				if got, want := CountInsts(src), splitCountInsts(src); got != want {
					t.Fatalf("seed %d mode %s mutate %v: CountInsts = %d, split count %d", seed, mode, mutate, got, want)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { CountInsts(src) }); allocs != 0 {
		t.Errorf("CountInsts: %.1f allocs, want 0", allocs)
	}
}

// TestEmittedInstsTracksExtra: padding a program with N instructions
// raises every mode's emitted count by exactly N — the property the
// scaled budget formula rides on.
func TestEmittedInstsTracksExtra(t *testing.T) {
	const pad = 500
	base := Generate(3)
	padded := Generate(3)
	padded.Extra = strings.Repeat("addiu zero, zero, 0\n", pad)
	for _, mode := range []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware} {
		b, p := base.EmittedInsts(mode), padded.EmittedInsts(mode)
		if b <= 0 {
			t.Fatalf("mode %s: base emitted %d", mode, b)
		}
		if p-b != pad {
			t.Errorf("mode %s: padded-base = %d, want %d", mode, p-b, pad)
		}
	}
}
