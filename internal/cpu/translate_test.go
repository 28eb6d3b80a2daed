package cpu

import (
	"errors"
	"fmt"
	"testing"

	"uexc/internal/arch"
	"uexc/internal/asm"
	"uexc/internal/mem"
	"uexc/internal/tlb"
)

// The tests here pin the translation tier's invalidation edges: a
// store that patches the very block executing it, ASID reuse after a
// TLB rewrite, straight-line code crossing a page boundary whose
// second page is patched, and an engine switch flipped mid-run. Each
// runs the JIT machine in lockstep with a pure-interpreter reference
// and compares the complete architectural state between chunks, the
// same oracle TestFastPathTortureLockstep uses.

// engineMachine is one lockstep participant for the focused tests.
type engineMachine struct {
	c  *CPU
	m  *mem.Memory
	tl *tlb.TLB
	p  *asm.Program
}

// newEngineMachine assembles src (absolute .org addresses; kseg0
// chunks load at their physical alias), points PC at entry, and
// selects the execution tier under test.
func newEngineMachine(t *testing.T, src string, entry uint32, engine Engine) *engineMachine {
	t.Helper()
	m := mem.New(1 << 22)
	tl := &tlb.TLB{}
	c := New(m, tl)
	c.Engine = engine

	p, err := asm.Assemble(src, arch.KSeg0Base)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for _, ch := range p.Chunks {
		pa := ch.Addr
		if ch.Addr >= arch.KSeg0Base {
			pa = arch.KSegPhys(ch.Addr)
		}
		if err := m.Write(pa, ch.Data); err != nil {
			t.Fatalf("load %#x: %v", ch.Addr, err)
		}
	}
	c.PC = entry
	c.NPC = c.PC + 4
	return &engineMachine{c: c, m: m, tl: tl, p: p}
}

// state captures every architecturally visible quantity the
// translation tier could plausibly disturb (the snapshot format of the
// fast-path torture).
func (em *engineMachine) state() string {
	c := em.c
	return fmt.Sprintf("pc=%#x npc=%#x gpr=%v hi=%#x lo=%#x cp0=%v insts=%d cycles=%d writes=%d tlbhits=%d tlbmisses=%d",
		c.PC, c.NPC, c.GPR, c.HI, c.LO, c.CP0, c.Insts, c.Cycles, c.MemWrites, c.TLB.Hits, c.TLB.Misses)
}

// runChunk advances the machine by exactly n instructions; anything
// but budget exhaustion is a test failure.
func runChunk(t *testing.T, c *CPU, n uint64) {
	t.Helper()
	_, err := c.Run(n)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("run: %v (pc=%#x)", err, c.PC)
	}
}

// smcBlockSrc stores into the instruction four words ahead of the
// store — inside the same basic block — toggling the patched addu's rt
// field between s1 (17) and s3 (19), then executes it. A translator
// that lets the stale translation retire the patched slot diverges
// from the interpreter immediately.
const smcBlockSrc = `
	.org 0x80001000
start:
	li   t0, 0x80001040
	li   t2, 0x20000      # rt-field bit: s1 <-> s3
	li   s1, 1
	li   s3, 100
	li   s4, 40           # iterations
	.org 0x80001030
loop:
	lw   t1, 0(t0)
	xor  t1, t1, t2
	sw   t1, 0(t0)        # patches patch:, same page, same block
patch:
	addu s0, s0, s1
	addiu s2, s2, 1
	bne  s2, s4, loop
	nop
spin:
	b    spin
	nop
`

// TestJITSMCInExecutingBlock: a store into the currently-executing
// block must be visible to the very next instruction, exactly as in
// the interpreter.
func TestJITSMCInExecutingBlock(t *testing.T) {
	jit := newEngineMachine(t, smcBlockSrc, 0x80001000, EngineJIT)
	ref := newEngineMachine(t, smcBlockSrc, 0x80001000, EngineInterp)

	const chunk = 61
	for r := 0; r < 8; r++ {
		runChunk(t, jit.c, chunk)
		runChunk(t, ref.c, chunk)
		if j, i := jit.state(), ref.state(); j != i {
			t.Fatalf("round %d: divergence\njit:    %s\ninterp: %s", r, j, i)
		}
	}
	if jit.c.GPR[16] == 0 || jit.c.GPR[16] == jit.c.GPR[18] {
		t.Errorf("patched instruction never alternated: s0=%d s2=%d", jit.c.GPR[16], jit.c.GPR[18])
	}
	if jit.c.JITBlocks == 0 || jit.c.JITExecs == 0 {
		t.Errorf("JIT never engaged: blocks=%d execs=%d", jit.c.JITBlocks, jit.c.JITExecs)
	}
	if jit.c.JITInvalidations == 0 {
		t.Error("in-block patches never invalidated a translation")
	}
}

// asidSrc holds two variants of the same loop at two physical frames;
// the test remaps one virtual page between them under a single reused
// ASID.
const asidSrc = `
	.org 0x80008000
a_loop:
	addiu s0, s0, 1
	addiu s2, s2, 1
	b    a_loop
	nop

	.org 0x80009000
b_loop:
	addiu s0, s0, 2
	addiu s2, s2, 1
	b    b_loop
	nop
`

// TestJITASIDReuseAfterFlush: after the TLB entry for (vpn 4, ASID 5)
// is rewritten to a different frame — a flush plus address-space reuse
// — translated blocks from the old frame must not serve the new one.
// Fetches go through a counted kuseg translation, so TLB hit/miss
// accounting is compared too.
func TestJITASIDReuseAfterFlush(t *testing.T) {
	jit := newEngineMachine(t, asidSrc, 0x4000, EngineJIT)
	ref := newEngineMachine(t, asidSrc, 0x4000, EngineInterp)

	for _, em := range []*engineMachine{jit, ref} {
		em.c.CP0[arch.C0EntryHi] = tlb.MakeHi(0, 5)
		em.tl.WriteIndexed(1, tlb.Entry{Hi: tlb.MakeHi(4, 5), Lo: tlb.MakeLo(8, tlb.LoV|tlb.LoD)})
	}

	const chunk = 97
	for r := uint32(0); r < 20; r++ {
		runChunk(t, jit.c, chunk)
		runChunk(t, ref.c, chunk)
		if j, i := jit.state(), ref.state(); j != i {
			t.Fatalf("round %d: divergence\njit:    %s\ninterp: %s", r, j, i)
		}
		// Flush the mapping and reuse ASID 5 for the other frame.
		frame := uint32(8 + (r+1)%2)
		for _, em := range []*engineMachine{jit, ref} {
			em.tl.WriteIndexed(1, tlb.Entry{Hi: tlb.MakeHi(4, 5), Lo: tlb.MakeLo(frame, tlb.LoV|tlb.LoD)})
		}
	}
	// s0 advanced by 1 under frame 8 and by 2 under frame 9: both
	// variants must actually have run.
	if got := jit.c.GPR[16]; got <= jit.c.GPR[18] || got >= 2*jit.c.GPR[18] {
		t.Errorf("remap never switched code variants: s0=%d s2=%d", got, jit.c.GPR[18])
	}
	if jit.c.JITExecs == 0 {
		t.Error("JIT never engaged through the counted mapping")
	}
	if jit.c.TLB.Hits == 0 {
		t.Error("counted fetches produced no TLB hits")
	}
}

// spanSrc is a loop whose straight-line body crosses from the page at
// 0x1000 into the page at 0x2000; the Go side patches the first word
// of the second page between chunks.
const spanSrc = `
	.org 0x80001fe8
loop:
	addiu s0, s0, 1
	addiu s1, s1, 3
	addu  s2, s2, s0
	xor   s3, s3, s1
	addu  s4, s4, s2
	sltu  t0, s0, s1
	.org 0x80002000
patch:
	addu  s5, s5, s1      # toggled to addu s5, s5, s3 by the test
	addiu s2, s2, 7
	bnez  s0, loop
	nop
`

// TestJITBlockSpansPageGeneration: translation stops at the page
// boundary, so the code above compiles into one block per page; moving
// the second page's generation must invalidate the second block only,
// and the fall-through from the first must observe the patch.
func TestJITBlockSpansPageGeneration(t *testing.T) {
	jit := newEngineMachine(t, spanSrc, 0x80001fe8, EngineJIT)
	ref := newEngineMachine(t, spanSrc, 0x80001fe8, EngineInterp)

	const patchPA = 0x2000
	const chunk = 93
	for r := 0; r < 20; r++ {
		runChunk(t, jit.c, chunk)
		runChunk(t, ref.c, chunk)
		if j, i := jit.state(), ref.state(); j != i {
			t.Fatalf("round %d: divergence\njit:    %s\ninterp: %s", r, j, i)
		}
		for _, em := range []*engineMachine{jit, ref} {
			pg := em.m.PageRef(patchPA)
			pg.SetWord(patchPA, pg.Word(patchPA)^(1<<17)) // rt: s1 <-> s3
		}
	}
	if jit.c.JITInvalidations == 0 {
		t.Error("second-page patches never invalidated a translation")
	}
	if jit.c.JITBlocks < 2 {
		t.Errorf("expected one block per page, compiled %d", jit.c.JITBlocks)
	}
}

// TestEngineToggleTortureLockstep runs the full fast-path torture
// schedule while flipping the engine switch pseudo-randomly between
// jit, fastpath, and interpreter every chunk. Any state the tiers
// disagree on — or any stale micro-TLB/predecode/block state surviving
// a switch — diverges from the EngineInterp reference.
func TestEngineToggleTortureLockstep(t *testing.T) {
	tog := newTortureMachine(t, EngineJIT)
	ref := newTortureMachine(t, EngineInterp)

	engines := []Engine{EngineJIT, EngineFast, EngineInterp}
	seen := [3]int{}
	rng := uint32(0x2545f491)
	const chunk = 97
	for r := uint32(0); r < 400; r++ {
		rng = rng*1664525 + 1013904223 // deterministic LCG schedule
		pick := int(rng >> 16 % 3)
		tog.c.Engine = engines[pick]
		seen[pick]++
		for _, tm := range []*tortureMachine{tog, ref} {
			_, err := tm.c.Run(chunk)
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("round %d: run ended: %v (pc=%#x)", r, err, tm.c.PC)
			}
		}
		if f, s := tog.snapshot(), ref.snapshot(); f != s {
			t.Fatalf("round %d (engine %d): divergence\ntoggled: %s\nref:     %s", r, tog.c.Engine, f, s)
		}
		tog.tortureMutate(r)
		ref.tortureMutate(r)
	}
	for i, n := range seen {
		if n == 0 {
			t.Fatalf("engine %d never selected by the schedule", i)
		}
	}
	if tog.c.JITExecs == 0 {
		t.Error("toggle schedule never retired a translated block")
	}
	if tog.c.GPR[22] == 0 { // s6: exception count
		t.Error("torture schedule provoked no exceptions")
	}
}
