package cpu

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// scriptedInjector is a test InjectHooks with faultinject's contract:
// quiet windows between scripted instants, where it raises a fault, or
// starts a forced-miss burst that installs TLB.InjectMiss until the
// burst's last miss removes it, or does nothing. It is silent in kernel
// mode. userSteps counts the Step calls made in user mode — an
// observation for the test, never an input to the schedule.
type scriptedInjector struct {
	tl        *tlb.TLB
	next      uint64 // Insts of the next instant
	fired     int    // instants so far
	misses    int    // forced misses still pending
	bursts    int    // bursts started
	userSteps uint64
}

func (s *scriptedInjector) QuietUntil(c *CPU) uint64 {
	switch {
	case c.KernelMode():
		return math.MaxUint64
	case s.misses > 0:
		return 0
	}
	return s.next
}

func (s *scriptedInjector) Step(c *CPU) *InjectedFault {
	if c.KernelMode() {
		return nil
	}
	s.userSteps++
	if c.Insts < s.next {
		return nil
	}
	s.fired++
	s.next = c.Insts + 40 + uint64(s.fired*53%257)
	switch s.fired % 3 {
	case 0:
		return &InjectedFault{Code: arch.ExcMod, BadVAddr: 0x10000, HasBV: true}
	case 1:
		s.misses = 1 + s.fired%4
		s.bursts++
		s.tl.InjectMiss = s.miss
	}
	return nil
}

func (s *scriptedInjector) miss(va uint32, asid uint8) bool {
	s.misses--
	if s.misses == 0 {
		s.tl.InjectMiss = nil
	}
	return true
}

// TestEngineToggleTortureArmedInjector is the engine-toggle torture
// with an armed injector on both machines, the loop running in user
// mode: the toggled machine must match the EngineInterp reference after
// every chunk — state, injector schedule, and whether InjectMiss is
// installed — while its translated blocks retire user instructions
// between instants (it calls Step in user mode fewer times than the
// reference, which calls it for every instruction).
func TestEngineToggleTortureArmedInjector(t *testing.T) {
	tog := newTortureMachine(t, EngineJIT)
	ref := newTortureMachine(t, EngineInterp)
	injs := [2]*scriptedInjector{}
	for i, tm := range []*tortureMachine{tog, ref} {
		injs[i] = &scriptedInjector{tl: tm.tl, next: 300}
		tm.c.Inject = injs[i]
		tm.c.CP0[arch.C0Status] |= arch.SrKUc // the loop runs in user mode
	}

	engines := []Engine{EngineJIT, EngineFast, EngineInterp}
	rng := uint32(0x2545f491)
	const chunk = 97
	for r := uint32(0); r < 400; r++ {
		rng = rng*1664525 + 1013904223
		tog.c.Engine = engines[rng>>16%3]
		for i, tm := range []*tortureMachine{tog, ref} {
			_, err := tm.c.Run(chunk)
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("round %d: run ended: %v (pc=%#x)", r, err, tm.c.PC)
			}
			if installed := tm.tl.InjectMiss != nil; installed != (injs[i].misses > 0) {
				t.Fatalf("round %d: InjectMiss installed=%v with %d misses pending", r, installed, injs[i].misses)
			}
		}
		if f, s := tog.snapshot(), ref.snapshot(); f != s {
			t.Fatalf("round %d (engine %d): divergence\ntoggled: %s\nref:     %s", r, tog.c.Engine, f, s)
		}
		a, b := injs[0], injs[1]
		if a.next != b.next || a.fired != b.fired || a.misses != b.misses {
			t.Fatalf("round %d: injector schedules diverged: %+v vs %+v", r, *a, *b)
		}
		tog.tortureMutate(r)
		ref.tortureMutate(r)
	}
	if injs[0].fired < 50 || injs[0].bursts < 10 {
		t.Errorf("schedule too thin: %d instants, %d miss bursts", injs[0].fired, injs[0].bursts)
	}
	if tog.c.GPR[22] == 0 { // s6: exception count
		t.Error("torture schedule provoked no exceptions")
	}
	if saved := injs[1].userSteps - injs[0].userSteps; saved < 1000 {
		t.Errorf("translated blocks retired only %d user instructions between instants (user steps: jit %d, interp %d)",
			saved, injs[0].userSteps, injs[1].userSteps)
	}
}

// TestCompileBlockAllocs gates the compiler's cost: discovery runs in
// the CPU's reused scratch buffer, so a compile allocates the block and
// one exact-length copy of its µops, however long the block. Each
// block owns its copy: a later compile must not change an earlier
// block's µops.
func TestCompileBlockAllocs(t *testing.T) {
	const maxAllocs = 2
	src := "\t.org 0x80001000\n"
	for i := 0; i < 40; i++ {
		src += fmt.Sprintf("\taddiu t%d, t%d, %d\n", i%8, (i+1)%8, i)
	}
	src += "\tjr ra\n\tnop\n"
	const pc = 0x80001000
	c := newEngineMachine(t, src, pc, EngineFast).c
	runChunk(t, c, 1) // fills the micro-ITLB entry for the page
	e := c.itlbLookup(pc)
	if e == nil || e.insts == nil {
		t.Fatal("no micro-ITLB entry for the block's page")
	}
	first := c.compileBlock(pc, e)
	if len(first.ops) != 42 || len(first.ops) != cap(first.ops) {
		t.Fatalf("block holds %d µops (cap %d), want 42 of exact length", len(first.ops), cap(first.ops))
	}
	want := append([]uop(nil), first.ops...)
	allocs := testing.AllocsPerRun(50, func() { c.compileBlock(pc+8, e) })
	if allocs > maxAllocs {
		t.Errorf("compileBlock: %.1f allocs, want at most %d", allocs, maxAllocs)
	}
	for i := range want {
		if first.ops[i] != want[i] {
			t.Fatalf("µop %d of an earlier block changed: %+v -> %+v", i, want[i], first.ops[i])
		}
	}
}

// revalSrc is the program TestRevalidatedBlockMatchesFreshCompile
// loads, with two variants: %[1]s is the second word of the loop's
// first block, %[2]s the word that ends that block. mfc0 is not
// compilable, so in the base program the block stops there.
const revalSrc = `
	.org 0x80001000
start:
	li    s5, 0x7fffffff
loop:
	addiu s0, s0, 1
	%[1]s
	xor   s4, s4, s0
	%[2]s
	addu  s3, s3, t5
	sltu  t0, s0, s5
	bnez  t0, loop
	nop
`

// checkEnteredBlocks holds every block valid at its page's current
// generation, which is every block entered since that generation, to a
// fresh compile of the page as it is now: the same µops from the same
// source words. It returns how many blocks it checked.
func checkEnteredBlocks(t *testing.T, stage string, c *CPU) int {
	t.Helper()
	n := 0
	for _, pi := range c.ipages {
		for _, b := range pi.blocks {
			if b == nil || b.gen != b.page.Gen() {
				continue
			}
			fresh := c.compileBlock(b.startVA, &utlbEntry{page: b.page, insts: pi, counted: b.counted})
			if !slices.Equal(b.ops, fresh.ops) || !slices.Equal(b.src, fresh.src) {
				t.Fatalf("%s: block at %#x is not a fresh compile\nblock µops %v words %v\nfresh µops %v words %v",
					stage, b.startVA, b.ops, b.src, fresh.ops, fresh.src)
			}
			n++
		}
	}
	return n
}

// TestRevalidatedBlockMatchesFreshCompile drives one machine the way
// the pool does — restore the boot state, load a program, run — through
// a reload of the same program, a program one word different inside a
// block, a program whose block-ending word becomes compilable, a
// restore of a mid-run snapshot and a fork of it. After every run chunk
// each block entered must be exactly what a fresh compile of the
// current page builds, and each stage must reuse or rebuild the blocks
// its words call for.
func TestRevalidatedBlockMatchesFreshCompile(t *testing.T) {
	const (
		base    = "addiu s2, s2, 3"
		word    = "addiu s2, s2, 5"
		stop    = "mfc0  t5, c0_status"
		compile = "addiu t5, s0, 7"
		loopVA  = 0x80001008 // li expands to two words
	)
	progs := map[string]*asm.Program{}
	for name, v := range map[string][2]string{"base": {base, stop}, "word": {word, stop}, "stop": {base, compile}} {
		p, err := asm.Assemble(fmt.Sprintf(revalSrc, v[0], v[1]), arch.KSeg0Base)
		if err != nil {
			t.Fatalf("assemble %s: %v", name, err)
		}
		if p.MustSymbol("loop") != loopVA {
			t.Fatalf("loop at %#x, want %#x", p.MustSymbol("loop"), uint32(loopVA))
		}
		progs[name] = p
	}

	type point struct {
		mem *mem.MemState
		tlb *tlb.State
		cpu *State
	}
	m := mem.New(1 << 22)
	tl := &tlb.TLB{}
	c := New(m, tl)
	capture := func() point { return point{m.CaptureState(), tl.CaptureState(), c.CaptureState()} }
	restore := func(p point) {
		t.Helper()
		if _, err := m.RestoreState(p.mem); err != nil {
			t.Fatal(err)
		}
		tl.RestoreState(p.tlb)
		c.RestoreState(p.cpu)
	}
	boot := capture()
	load := func(name string) {
		t.Helper()
		restore(boot)
		for _, ch := range progs[name].Chunks {
			if err := m.Write(arch.KSegPhys(ch.Addr), ch.Data); err != nil {
				t.Fatal(err)
			}
		}
		c.PC = progs[name].MustSymbol("start")
		c.NPC = c.PC + 4
	}
	loopBlock := func() *jitBlock {
		pi := c.ipages[arch.KSegPhys(loopVA)>>arch.PageShift]
		return pi.blocks[loopVA&(arch.PageSize-1)>>2]
	}
	// run advances the machine in chunks, checking after each, and
	// returns the blocks compiled and revalidated meanwhile.
	run := func(stage string) (compiled, revalidated uint64) {
		t.Helper()
		b0, r0 := c.JITBlocks, c.jitRevalidations
		checked := 0
		for i := 0; i < 40; i++ {
			runChunk(t, c, 7)
			checked += checkEnteredBlocks(t, stage, c)
		}
		if checked == 0 || c.JITExecs == 0 {
			t.Fatalf("%s: no block entered", stage)
		}
		return c.JITBlocks - b0, c.jitRevalidations - r0
	}

	load("base")
	if compiled, _ := run("load"); compiled == 0 {
		t.Fatal("load: nothing compiled")
	}
	baseOps := len(loopBlock().ops)
	if baseOps != 3 {
		t.Fatalf("base loop block holds %d µops, want 3 (mfc0 ends it)", baseOps)
	}

	load("base")
	if compiled, revalidated := run("reload"); compiled != 0 || revalidated == 0 {
		t.Errorf("reload of the same program: %d compiled, %d revalidated; want 0 compiled", compiled, revalidated)
	}

	load("word")
	if compiled, revalidated := run("one word"); compiled == 0 || revalidated == 0 {
		t.Errorf("one word changed: %d compiled, %d revalidated; want both", compiled, revalidated)
	}

	load("stop")
	run("stop word")
	if n := len(loopBlock().ops); n <= baseOps {
		t.Errorf("compilable stop word: loop block holds %d µops, want more than %d", n, baseOps)
	}

	load("base")
	run("before snapshot")
	snap := capture()
	load("word")
	run("other program")
	restore(snap)
	if _, revalidated := run("restore"); revalidated == 0 {
		t.Error("restore: no block revalidated")
	}

	m, tl = mem.New(1<<22), &tlb.TLB{}
	c = New(m, tl)
	restore(snap)
	if compiled, revalidated := run("fork"); compiled == 0 || revalidated != 0 {
		t.Errorf("fork: %d compiled, %d revalidated; a fork starts cold", compiled, revalidated)
	}
}
