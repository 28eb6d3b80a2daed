package difftest

import (
	"slices"
	"strings"
	"testing"

	"uexc/internal/arch"
	"uexc/internal/core"
	"uexc/internal/progen"
)

// TestZeroDivergences: a band of generated programs must be
// architecturally equivalent across all three delivery modes, and each
// program must actually exercise the handler policy (a silently
// fault-free program would make the equivalence vacuous).
func TestZeroDivergences(t *testing.T) {
	pool := &core.MachinePool{}
	var total uint64
	for seed := int64(0); seed < 40; seed++ {
		shard := RunShard(pool, int(seed))
		for _, d := range shard.Divergences {
			t.Errorf("seed %d: %s", seed, d)
		}
		total += shard.Entries
	}
	if total == 0 {
		t.Fatal("no handler-policy invocations across 40 seeds — generator is not faulting")
	}
}

// TestOracleDetectsMutation: seeding a known-wrong handler policy into
// a single mode must register as a divergence. Without this the
// "zero divergences" verdict proves nothing.
func TestOracleDetectsMutation(t *testing.T) {
	seed := mutationSeed()
	if !SelfTest(seed) {
		t.Fatalf("oracle did not detect the cause-offset mutation at seed %d", seed)
	}
}

// TestMutationDiffNamesLog: the mutation corrupts logged cause codes,
// so the reported divergence must implicate the handler log (not some
// incidental register).
func TestMutationDiffNamesLog(t *testing.T) {
	pool := &core.MachinePool{}
	p := generateFaulting(t)
	base := runMode(pool, p, core.ModeUltrix, false)
	mut := runMode(pool, p, core.ModeFast, true)
	divs := diff(&base, &mut)
	if len(divs) == 0 {
		t.Fatal("no divergences from mutated run")
	}
	found := false
	for _, d := range divs {
		if strings.Contains(d, "log[") {
			found = true
		}
	}
	if !found {
		t.Errorf("mutation divergences never mention the handler log: %v", divs)
	}
}

// generateFaulting returns the lowest-seed program with at least one
// faulting episode.
func generateFaulting(t *testing.T) *progen.Program {
	t.Helper()
	return progen.Generate(mutationSeed())
}

// FuzzDiffModes feeds arbitrary seeds to the cross-mode oracle. Any
// seed whose generated program diverges between modes — or fails to
// run cleanly in any mode — is a finding.
func FuzzDiffModes(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 11, 42, 1 << 32, -1} {
		f.Add(seed, false)
	}
	// SMC probes: the same generated programs with a self-modifying-code
	// stanza appended, pinning the interpreter's predecode invalidation.
	f.Add(int64(0), true)
	f.Add(int64(42), true)
	pool := &core.MachinePool{}
	f.Fuzz(func(t *testing.T, seed int64, smc bool) {
		p := progen.Generate(seed)
		if smc {
			p.Extra = progen.SMCStanza
		}
		for _, d := range CheckProgram(pool, p).Divergences {
			t.Errorf("seed %d (smc=%v): %s", seed, smc, d)
		}
	})
}

// TestSMCStanzaObservesPatch proves the self-modifying-code probe has
// teeth: the patched thunk must contribute 7 from the first call and
// 1234 from the second (patched) instruction to the s1 accumulator.
// An interpreter serving stale predecoded instructions would add 7
// twice — in every mode at once, which cross-mode diffing alone cannot
// see.
func TestSMCStanzaObservesPatch(t *testing.T) {
	pool := &core.MachinePool{}
	const seed = 3
	base := progen.Generate(seed)
	smc := progen.Generate(seed)
	smc.Extra = progen.SMCStanza

	for _, mode := range Modes {
		rb := runMode(pool, base, mode, false)
		rs := runMode(pool, smc, mode, false)
		if rb.Err != "" || rs.Err != "" {
			t.Fatalf("[%s] run errors: base=%q smc=%q", mode, rb.Err, rs.Err)
		}
		const s1 = 17
		if got := rs.GPR[s1] - rb.GPR[s1]; got != 7+1234 {
			t.Errorf("[%s] smc accumulator delta = %d, want %d (stale decode?)", mode, got, 7+1234)
		}
	}
}

// wordReads records, as each machine is returned, its data page and
// fault arena read the word-at-a-time way runMode once did: one
// ReadUserWord per word.
type wordReads struct {
	pool        *core.MachinePool
	data, arena []uint32
}

func (w *wordReads) Get() (*core.Machine, error) { return w.pool.Get() }

func (w *wordReads) Put(m *core.Machine) {
	word := func(va uint32) uint32 {
		v, _ := m.K.ReadUserWord(va)
		return v
	}
	w.data, w.arena = nil, nil
	for off := uint32(0); off < arch.PageSize; off += 4 {
		w.data = append(w.data, word(progen.DataBase+off))
	}
	for off := uint32(0); off < progen.ArenaPages*arch.PageSize; off += 4 {
		w.arena = append(w.arena, word(progen.ArenaBase+off))
	}
	w.pool.Put(m)
}

// TestUserWordsMatchWordReads: reading the data page and the fault
// arena a page at a time yields exactly the words ReadUserWord reads
// one at a time, and the entry count and handler log taken from the
// data page match, for seeds 0–199 under every mode.
func TestUserWordsMatchWordReads(t *testing.T) {
	w := &wordReads{pool: &core.MachinePool{}}
	for seed := int64(0); seed < 200; seed++ {
		p := progen.Generate(seed)
		for _, mode := range Modes {
			r := runMode(w, p, mode, false)
			if r.Err != "" && strings.HasPrefix(r.Err, "panic") {
				t.Fatalf("seed %d mode %s: %s", seed, mode, r.Err)
			}
			if !slices.Equal(r.Data, w.data) || !slices.Equal(r.Arena, w.arena) {
				t.Fatalf("seed %d mode %s: page reads differ from word reads", seed, mode)
			}
			logged := min(w.data[progen.OffLogLen/4], progen.LogCap)
			if r.Entries != w.data[progen.OffCount/4] || len(r.Log) != int(logged) {
				t.Fatalf("seed %d mode %s: entries/log = %d/%d, want %d/%d",
					seed, mode, r.Entries, len(r.Log), w.data[progen.OffCount/4], logged)
			}
			for i, e := range r.Log {
				off := (progen.OffLog + uint32(i)*8) / 4
				if e != (Entry{Cause: w.data[off], BadVA: w.data[off+1]}) {
					t.Fatalf("seed %d mode %s: log entry %d = %+v", seed, mode, i, e)
				}
			}
		}
	}
}
