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

// tortureSrc is an endless kuseg loop that streams loads and stores
// over two data pages through counted TLB translations, with a kseg0
// handler that folds every exception into s6/s7 and skips the faulting
// instruction. The Go side mutates the TLB and the code page between
// run chunks; any fault the mutations provoke is part of the expected
// (and compared) architectural history.
const tortureSrc = `
	.org 0x80000080
	mfc0 k0, c0_cause
	addu s7, s7, k0       # exception log digest
	addiu s6, s6, 1       # exception count
	mfc0 k0, c0_epc
	addiu k0, k0, 4
	jr   k0
	rfe

	.org 0x4000
start:
	li   s1, 0x10000
loop:
	lw   t0, 0(s1)
smc:	addu s0, s0, t0       # Go side toggles rt between t0 and t1
	sw   s0, 8(s1)
	lw   t1, 0x1000(s1)
	addu s0, s0, t1
	sw   s0, 0x1008(s1)
	addiu s1, s1, 16
	andi t2, s1, 0xfff
	bnez t2, loop
	nop
	li   s1, 0x10000
	b    loop
	nop
`

// tortureMachine is one lockstep participant.
type tortureMachine struct {
	c     *CPU
	m     *mem.Memory
	tl    *tlb.TLB
	smcPA uint32 // physical address of the smc: instruction
}

func newTortureMachine(t *testing.T, engine Engine) *tortureMachine {
	t.Helper()
	m := mem.New(1 << 22)
	tl := &tlb.TLB{}
	c := New(m, tl)
	c.Engine = engine

	p, err := asm.Assemble(tortureSrc, arch.KSeg0Base)
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

	// Code page: wired slot 0, global and writable (SMC), identity-
	// mapped — mutations below never touch wired slots, so fetches
	// always translate and the handler's return never livelocks.
	tl.WriteIndexed(0, tlb.Entry{Hi: tlb.MakeHi(4, 0), Lo: tlb.MakeLo(4, tlb.LoV|tlb.LoD|tlb.LoG)})
	// Data pages vpn 16/17 for ASID 0 and, at different frames, ASID 1.
	tl.WriteIndexed(8, tlb.Entry{Hi: tlb.MakeHi(16, 0), Lo: tlb.MakeLo(16, tlb.LoV|tlb.LoD)})
	tl.WriteIndexed(9, tlb.Entry{Hi: tlb.MakeHi(17, 0), Lo: tlb.MakeLo(17, tlb.LoV|tlb.LoD)})
	tl.WriteIndexed(10, tlb.Entry{Hi: tlb.MakeHi(16, 1), Lo: tlb.MakeLo(24, tlb.LoV|tlb.LoD)})
	tl.WriteIndexed(11, tlb.Entry{Hi: tlb.MakeHi(17, 1), Lo: tlb.MakeLo(25, tlb.LoV|tlb.LoD)})
	for _, pa := range []uint32{16, 17, 24, 25} {
		if err := m.StoreWord(pa<<arch.PageShift, 0x1111*pa); err != nil {
			t.Fatal(err)
		}
	}

	c.PC = p.MustSymbol("start")
	c.NPC = c.PC + 4
	return &tortureMachine{c: c, m: m, tl: tl, smcPA: p.MustSymbol("smc")}
}

// tortureMutate applies mutation round r — identically on every
// machine it is called with.
func (tm *tortureMachine) tortureMutate(r uint32) {
	switch r % 7 {
	case 0:
		// CAM/data upset on a data entry: flips V, D, or a PFN/VPN bit.
		hi := []uint32{0, 1 << arch.PageShift}[r>>3%2]
		lo := []uint32{tlb.LoD, tlb.LoV, 1 << arch.PageShift}[r>>4%3]
		tm.tl.FlipBits(int(8+r>>2%4), hi, lo)
	case 1:
		vpn := 16 + r>>2%2
		asid := uint8(r >> 5 % 2)
		tm.tl.WriteRandom(tlb.Entry{Hi: tlb.MakeHi(vpn, asid), Lo: tlb.MakeLo(vpn, tlb.LoV|tlb.LoD)})
	case 2:
		tm.tl.UpdateProtection(int(8+r>>2%4), r>>3%2 == 0, r>>4%2 == 0)
	case 3:
		// ASID switch: micro-TLB entries for the old space must not serve
		// the new one.
		tm.c.CP0[arch.C0EntryHi] = tlb.MakeHi(0, uint8(r>>2%2))
	case 4:
		// Self-modifying code from outside the pipeline: toggle the smc
		// instruction's rt between t0 (8) and t1 (9). The predecode cache
		// must observe the store via the page generation.
		pg := tm.m.PageRef(tm.smcPA)
		pg.SetWord(tm.smcPA, pg.Word(tm.smcPA)^(1<<16))
	case 5:
		tm.tl.InvalidatePage(16+r>>2%2, uint8(r>>3%2))
	case 6:
		// Restore the data mappings so faults stay episodic rather than
		// the steady state.
		tm.tl.WriteIndexed(8, tlb.Entry{Hi: tlb.MakeHi(16, 0), Lo: tlb.MakeLo(16, tlb.LoV|tlb.LoD)})
		tm.tl.WriteIndexed(9, tlb.Entry{Hi: tlb.MakeHi(17, 0), Lo: tlb.MakeLo(17, tlb.LoV|tlb.LoD)})
	}
}

// snapshot captures every architecturally visible quantity the fast
// path could plausibly disturb.
func (tm *tortureMachine) snapshot() string {
	c := tm.c
	return fmt.Sprintf("pc=%#x npc=%#x gpr=%v hi=%#x lo=%#x cp0=%v insts=%d cycles=%d writes=%d tlbhits=%d tlbmisses=%d",
		c.PC, c.NPC, c.GPR, c.HI, c.LO, c.CP0, c.Insts, c.Cycles, c.MemWrites, c.TLB.Hits, c.TLB.Misses)
}

// TestFastPathTortureLockstep drives the default engine and the
// EngineInterp reference through an identical schedule of TLB upsets,
// random refills, protection changes, ASID switches, page
// invalidations, and self-modifying code, comparing the complete
// architectural state after every chunk. Any invalidation hole in the
// micro-TLBs, predecode cache, or JIT diverges the two machines.
func TestFastPathTortureLockstep(t *testing.T) {
	fast := newTortureMachine(t, DefaultEngine)
	slow := newTortureMachine(t, EngineInterp)

	const chunk = 97 // odd so chunk boundaries drift across the loop body
	for r := uint32(0); r < 400; r++ {
		for _, tm := range []*tortureMachine{fast, slow} {
			_, err := tm.c.Run(chunk)
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("round %d: run ended: %v (pc=%#x)", r, err, tm.c.PC)
			}
		}
		if f, s := fast.snapshot(), slow.snapshot(); f != s {
			t.Fatalf("round %d: divergence\nfast: %s\nslow: %s", r, f, s)
		}
		fast.tortureMutate(r)
		slow.tortureMutate(r)
	}

	// The schedule must have actually exercised the interesting paths.
	if fast.c.GPR[22] == 0 { // s6: exception count
		t.Error("torture schedule provoked no exceptions")
	}
	if fast.c.TLB.Misses == 0 || fast.c.TLB.Hits == 0 {
		t.Errorf("degenerate TLB traffic: hits=%d misses=%d", fast.c.TLB.Hits, fast.c.TLB.Misses)
	}
	if fast.c.ipages == nil {
		t.Error("fast machine never engaged the predecode cache")
	}
	if slow.c.ipages != nil {
		t.Error("EngineInterp machine engaged the predecode cache")
	}

	// Data pages must match byte-for-byte across modes.
	for _, pa := range []uint32{16 << arch.PageShift, 17 << arch.PageShift, 24 << arch.PageShift, 25 << arch.PageShift} {
		fb, err1 := fast.m.Read(pa, arch.PageSize)
		sb, err2 := slow.m.Read(pa, arch.PageSize)
		if err1 != nil || err2 != nil {
			t.Fatalf("read page %#x: %v %v", pa, err1, err2)
		}
		if string(fb) != string(sb) {
			t.Errorf("page %#x differs across modes", pa)
		}
	}
}
