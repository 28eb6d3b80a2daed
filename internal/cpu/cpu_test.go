package cpu

import (
	"testing"

	"uexc/internal/arch"
	"uexc/internal/asm"
	"uexc/internal/mem"
	"uexc/internal/tlb"
)

// testMachine wraps a CPU with helpers for loading assembled programs,
// and is the CPU's OSHooks: it records hcalls.
type testMachine struct {
	t  *testing.T
	c  *CPU
	m  *mem.Memory
	tl *tlb.TLB

	hcalls []hcallRec
}

type hcallRec struct {
	code uint32
	v0   uint32
	a0   uint32
}

// Test hcall codes: 0 halts, anything else records (code, v0, a0).
const hcExit = 0

func newTestMachine(t *testing.T) *testMachine {
	t.Helper()
	m := mem.New(1 << 29) // covers kseg1's reset vector region
	tl := &tlb.TLB{}
	c := New(m, tl)
	tm := &testMachine{t: t, c: c, m: m, tl: tl}
	c.OS = tm
	return tm
}

// HCall implements OSHooks.
func (tm *testMachine) HCall(c *CPU, code uint32) error {
	if code == hcExit {
		c.Halted = true
		return nil
	}
	tm.hcalls = append(tm.hcalls, hcallRec{code, c.GPR[arch.RegV0], c.GPR[arch.RegA0]})
	return nil
}

// OnUEXRecursion implements OSHooks; the bare CPU tests police nothing.
func (tm *testMachine) OnUEXRecursion(Exception) {}

// OnUEXClear implements OSHooks.
func (tm *testMachine) OnUEXClear() {}

// load assembles src and loads its chunks: kseg addresses map directly
// to physical; kuseg chunks are loaded at pa == va and identity-mapped
// writable in the TLB.
func (tm *testMachine) load(src string) *asm.Program {
	tm.t.Helper()
	p, err := asm.Assemble(src, arch.KSeg0Base)
	if err != nil {
		tm.t.Fatalf("assemble: %v", err)
	}
	for _, ch := range p.Chunks {
		pa := ch.Addr
		if ch.Addr >= arch.KSeg0Base {
			pa = arch.KSegPhys(ch.Addr)
		} else {
			tm.mapIdentity(ch.Addr, uint32(len(ch.Data)), true)
		}
		if err := tm.m.Write(pa, ch.Data); err != nil {
			tm.t.Fatalf("load %#x: %v", ch.Addr, err)
		}
	}
	return p
}

// mapIdentity installs writable identity TLB mappings for [va, va+n).
func (tm *testMachine) mapIdentity(va, n uint32, writable bool) {
	flags := tlb.LoV
	if writable {
		flags |= tlb.LoD
	}
	first := va >> arch.PageShift
	last := (va + n - 1) >> arch.PageShift
	for vpn := first; vpn <= last; vpn++ {
		if idx, ok := tm.tl.Probe(tlb.MakeHi(vpn, 0)); ok {
			tm.tl.WriteIndexed(idx, tlb.Entry{Hi: tlb.MakeHi(vpn, 0), Lo: tlb.MakeLo(vpn, flags)})
			continue
		}
		tm.tl.WriteRandom(tlb.Entry{Hi: tlb.MakeHi(vpn, 0), Lo: tlb.MakeLo(vpn, flags)})
	}
}

// run starts at the "start" symbol (kernel mode) and runs to halt.
func (tm *testMachine) run(p *asm.Program, maxInst uint64) {
	tm.t.Helper()
	tm.c.PC = p.MustSymbol("start")
	tm.c.NPC = tm.c.PC + 4
	if _, err := tm.c.Run(maxInst); err != nil {
		tm.t.Fatalf("run: %v (pc=%#x)", err, tm.c.PC)
	}
}

// record returns the single recorded hcall with the given code.
func (tm *testMachine) record(code uint32) hcallRec {
	tm.t.Helper()
	for _, r := range tm.hcalls {
		if r.code == code {
			return r
		}
	}
	tm.t.Fatalf("no hcall %d recorded (have %v)", code, tm.hcalls)
	return hcallRec{}
}

func TestArithmeticAndMemory(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80002000
start:
		li   t0, 41
		addiu t0, t0, 1
		li   t1, 0x12340000
		ori  t1, t1, 0x5678
		la   t2, scratch
		sw   t0, 0(t2)
		sw   t1, 4(t2)
		lw   v0, 0(t2)
		hcall 1            # record v0 = 42
		lw   v0, 4(t2)
		hcall 2            # record v0 = 0x12345678
		lb   v0, 4(t2)     # low byte (little-endian) = 0x78
		hcall 3
		lbu  v0, 7(t2)     # high byte = 0x12
		hcall 4
		lh   v0, 4(t2)
		hcall 5
		hcall 0
scratch: .word 0, 0
	`)
	tm.run(p, 1000)
	if r := tm.record(1); r.v0 != 42 {
		t.Errorf("record 1 = %#x", r.v0)
	}
	if r := tm.record(2); r.v0 != 0x12345678 {
		t.Errorf("record 2 = %#x", r.v0)
	}
	if r := tm.record(3); r.v0 != 0x78 {
		t.Errorf("lb = %#x", r.v0)
	}
	if r := tm.record(4); r.v0 != 0x12 {
		t.Errorf("lbu = %#x", r.v0)
	}
	if r := tm.record(5); r.v0 != 0x5678 {
		t.Errorf("lh = %#x", r.v0)
	}
}

func TestBranchDelaySlotExecutes(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80002000
start:
		li   v0, 0
		b    over
		addiu v0, v0, 5   # delay slot: must execute
		addiu v0, v0, 100 # skipped
over:
		hcall 1
		hcall 0
	`)
	tm.run(p, 100)
	if r := tm.record(1); r.v0 != 5 {
		t.Errorf("v0 = %d, want 5 (delay slot must run, fall-through must not)", r.v0)
	}
}

func TestNotTakenBranchDelaySlotStillExecutes(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80002000
start:
		li   v0, 0
		li   t0, 1
		beq  t0, zero, away   # not taken
		addiu v0, v0, 7       # delay slot executes regardless
		addiu v0, v0, 1
		hcall 1
		hcall 0
away:
		hcall 2
		hcall 0
	`)
	tm.run(p, 100)
	if r := tm.record(1); r.v0 != 8 {
		t.Errorf("v0 = %d, want 8", r.v0)
	}
	if len(tm.hcalls) != 1 {
		t.Errorf("took wrong path: %v", tm.hcalls)
	}
}

func TestJALLinksPastDelaySlot(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80002000
start:
		jal  sub
		li   v0, 1          # delay slot
		hcall 1             # return lands here
		hcall 0
sub:
		jr   ra
		addiu v0, v0, 10    # delay slot of jr
	`)
	tm.run(p, 100)
	if r := tm.record(1); r.v0 != 11 {
		t.Errorf("v0 = %d, want 11", r.v0)
	}
}

func TestMultDiv(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80002000
start:
		li   t0, 100000
		li   t1, 300000
		multu t0, t1
		mflo v0
		hcall 1
		mfhi v0
		hcall 2
		li   t0, 0xffffffff    # -1
		li   t1, 5
		mult t0, t1            # -5
		mflo v0
		hcall 3
		li   t0, 17
		li   t1, 5
		div  t0, t1
		mflo v0
		hcall 4
		mfhi v0
		hcall 5
		hcall 0
	`)
	tm.run(p, 100)
	p100k300k := uint64(100000) * 300000
	if r := tm.record(1); r.v0 != uint32(p100k300k) {
		t.Errorf("multu lo = %#x", r.v0)
	}
	if r := tm.record(2); r.v0 != uint32(p100k300k>>32) {
		t.Errorf("multu hi = %#x", r.v0)
	}
	if r := tm.record(3); int32(r.v0) != -5 {
		t.Errorf("mult lo = %d", int32(r.v0))
	}
	if r := tm.record(4); r.v0 != 3 {
		t.Errorf("div quot = %d", r.v0)
	}
	if r := tm.record(5); r.v0 != 2 {
		t.Errorf("div rem = %d", r.v0)
	}
}

func TestOverflowException(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80000080
		mfc0 v0, c0_cause
		hcall 1
		mfc0 v0, c0_epc
		hcall 2
		hcall 0

		.org 0x80002000
start:
		li   t0, 0x7fffffff
		li   t1, 1
faulting:
		add  v0, t0, t1       # overflow
		hcall 3               # must not run
		hcall 0
	`)
	tm.run(p, 100)
	if r := tm.record(1); r.v0>>arch.CauseExcShift&31 != arch.ExcOv {
		t.Errorf("cause = %#x, want Ov", r.v0)
	}
	if r := tm.record(2); r.v0 != p.MustSymbol("faulting") {
		t.Errorf("epc = %#x, want %#x", r.v0, p.MustSymbol("faulting"))
	}
	for _, r := range tm.hcalls {
		if r.code == 3 {
			t.Error("instruction after fault executed")
		}
	}
}

func TestSyscallAndBreakVector(t *testing.T) {
	for _, tc := range []struct {
		inst string
		want uint32
	}{{"syscall", arch.ExcSys}, {"break 7", arch.ExcBp}} {
		tm := newTestMachine(t)
		p := tm.load(`
		.org 0x80000080
		mfc0 v0, c0_cause
		hcall 1
		hcall 0
		.org 0x80002000
start:
		` + tc.inst + `
		hcall 0
	`)
		tm.run(p, 100)
		if r := tm.record(1); r.v0>>arch.CauseExcShift&31 != tc.want {
			t.Errorf("%s: cause = %#x, want code %d", tc.inst, r.v0, tc.want)
		}
	}
}

func TestDelaySlotFaultSetsBDAndBranchEPC(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80000080
		mfc0 v0, c0_cause
		hcall 1
		mfc0 v0, c0_epc
		hcall 2
		hcall 0
		.org 0x80002000
start:
branchpc:
		b    target
		break             # fault in delay slot
target:
		hcall 0
	`)
	tm.run(p, 100)
	r := tm.record(1)
	if r.v0&arch.CauseBD == 0 {
		t.Error("Cause.BD not set for delay-slot fault")
	}
	if r2 := tm.record(2); r2.v0 != p.MustSymbol("branchpc") {
		t.Errorf("EPC = %#x, want branch at %#x", r2.v0, p.MustSymbol("branchpc"))
	}
}

func TestRFEPopsStatusStack(t *testing.T) {
	tm := newTestMachine(t)
	// Enter with KUc=0 (kernel). Take exception: stack pushes. RFE pops.
	p := tm.load(`
		.org 0x80000080
		mfc0 v0, c0_status
		hcall 1               # status after push
		mfc0 k0, c0_epc
		addiu k0, k0, 4
		jr   k0
		rfe                   # delay slot: pop
		.org 0x80002000
start:
		mfc0 t0, c0_status
		ori  t0, t0, 0x1      # IEc=1 (stay kernel)
		mtc0 t0, c0_status
		break
		mfc0 v0, c0_status
		hcall 2               # status after rfe
		hcall 0
	`)
	tm.run(p, 100)
	if r := tm.record(1); r.v0&0x3f != 0x04 { // KUc=0,IEc=0, KUp=0,IEp=1
		t.Errorf("status after push = %#x, want low bits 0x04", r.v0)
	}
	if r := tm.record(2); r.v0&0x3f != 0x01 {
		t.Errorf("status after rfe = %#x, want low bits 0x01", r.v0)
	}
}

// enterUserHarness is a kernel wrapper that maps nothing extra, switches
// to user mode at the "user" symbol, and forwards exceptions to hcalls:
// cause recorded as hcall 1, epc as hcall 2, badvaddr as hcall 3, then
// halts.
const enterUserHarness = `
		.org 0x80000000
		# UTLB refill vector: record and halt
		mfc0 v0, c0_cause
		hcall 10
		mfc0 v0, c0_badvaddr
		hcall 11
		hcall 0

		.org 0x80000080
		mfc0 v0, c0_cause
		hcall 1
		mfc0 v0, c0_epc
		hcall 2
		mfc0 v0, c0_badvaddr
		hcall 3
		hcall 0

		.org 0x80001000
start:
		la   k0, user
		mtc0 k0, c0_epc
		mfc0 t0, c0_status
		ori  t0, t0, 0x8     # KUp = user
		mtc0 t0, c0_status
		mfc0 k0, c0_epc
		jr   k0
		rfe
`

func TestUserModeKsegAccessFaults(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(enterUserHarness + `
		.org 0x4000
user:
		li   t0, 0x80000000
		lw   v0, 0(t0)       # user load from kseg0: AdEL
		nop
	`)
	tm.run(p, 200)
	if r := tm.record(1); r.v0>>arch.CauseExcShift&31 != arch.ExcAdEL {
		t.Errorf("cause = %#x, want AdEL", r.v0)
	}
	if r := tm.record(3); r.v0 != 0x80000000 {
		t.Errorf("badvaddr = %#x", r.v0)
	}
}

func TestUserModePrivilegedInstructionFaults(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(enterUserHarness + `
		.org 0x4000
user:
		mfc0 t0, c0_status   # privileged in user mode: CpU
		nop
	`)
	tm.run(p, 200)
	if r := tm.record(1); r.v0>>arch.CauseExcShift&31 != arch.ExcCpU {
		t.Errorf("cause = %#x, want CpU", r.v0)
	}
}

func TestUserHCALLIsReservedInstruction(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(enterUserHarness + `
		.org 0x4000
user:
		hcall 99             # user hcall: RI
		nop
	`)
	tm.run(p, 200)
	if r := tm.record(1); r.v0>>arch.CauseExcShift&31 != arch.ExcRI {
		t.Errorf("cause = %#x, want RI", r.v0)
	}
	for _, r := range tm.hcalls {
		if r.code == 99 {
			t.Error("user hcall invoked the hook")
		}
	}
}

func TestUnalignedLoadFaults(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(enterUserHarness + `
		.org 0x4000
user:
		li   t0, 0x4101
		lw   v0, 0(t0)       # unaligned: AdEL
		nop
	`)
	tm.run(p, 200)
	if r := tm.record(1); r.v0>>arch.CauseExcShift&31 != arch.ExcAdEL {
		t.Errorf("cause = %#x, want AdEL", r.v0)
	}
	if r := tm.record(3); r.v0 != 0x4101 {
		t.Errorf("badvaddr = %#x, want 0x4101", r.v0)
	}
}

func TestTLBMissVectorsToRefillHandler(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(enterUserHarness + `
		.org 0x4000
user:
		li   t0, 0x00700000   # unmapped page
		lw   v0, 0(t0)
		nop
	`)
	tm.run(p, 200)
	if r := tm.record(10); r.v0>>arch.CauseExcShift&31 != arch.ExcTLBL {
		t.Errorf("refill cause = %#x, want TLBL", r.v0)
	}
	if r := tm.record(11); r.v0 != 0x00700000 {
		t.Errorf("refill badvaddr = %#x", r.v0)
	}
}

func TestStoreToCleanPageRaisesMod(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(enterUserHarness + `
		.org 0x4000
user:
		li   t0, 0x00600000
		sw   v0, 0(t0)        # mapped read-only below
		nop
	`)
	// Map 0x600000 valid but clean (not writable).
	tm.tl.WriteIndexed(9, tlb.Entry{
		Hi: tlb.MakeHi(0x600, 0), Lo: tlb.MakeLo(0x600, tlb.LoV),
	})
	tm.run(p, 200)
	if r := tm.record(1); r.v0>>arch.CauseExcShift&31 != arch.ExcMod {
		t.Errorf("cause = %#x, want Mod", r.v0)
	}
	if r := tm.record(3); r.v0 != 0x00600000 {
		t.Errorf("badvaddr = %#x", r.v0)
	}
}

func TestInvalidEntryGoesToGeneralVector(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(enterUserHarness + `
		.org 0x4000
user:
		li   t0, 0x00600000
		lw   v0, 0(t0)
		nop
	`)
	tm.tl.WriteIndexed(9, tlb.Entry{
		Hi: tlb.MakeHi(0x600, 0), Lo: tlb.MakeLo(0x600, 0), // present, invalid
	})
	tm.run(p, 200)
	// Must hit general vector (hcall 1), not refill (hcall 10).
	if r := tm.record(1); r.v0>>arch.CauseExcShift&31 != arch.ExcTLBL {
		t.Errorf("cause = %#x, want TLBL at general vector", r.v0)
	}
}

func TestKernelTLBInstructions(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80002000
start:
		# Write entry 5: vpn 0x123 -> pfn 0x456, V|D
		li   t0, 0x123000
		sll  t0, t0, 0      # entryhi = vpn<<12
		mtc0 t0, c0_entryhi
		li   t1, 0x456000 | 0x600   # pfn<<12 | D | V
		mtc0 t1, c0_entrylo
		li   t2, 5 << 8
		mtc0 t2, c0_index
		tlbwi
		# Probe for it
		li   t0, 0x123000
		mtc0 t0, c0_entryhi
		tlbp
		mfc0 v0, c0_index
		hcall 1
		# Read it back
		tlbr
		mfc0 v0, c0_entrylo
		hcall 2
		hcall 0
	`)
	tm.run(p, 200)
	if r := tm.record(1); r.v0 != 5<<8 {
		t.Errorf("tlbp index = %#x, want %#x", r.v0, 5<<8)
	}
	if r := tm.record(2); r.v0 != 0x456000|0x600 {
		t.Errorf("tlbr entrylo = %#x", r.v0)
	}
	e, idx, ok := tm.tl.Lookup(0x123abc, 0)
	if !ok || idx != 5 || e.PFN() != 0x456 {
		t.Errorf("lookup after tlbwi: %+v idx=%d ok=%v", e, idx, ok)
	}
}

func TestGPR0AlwaysZero(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80002000
start:
		li   t0, 77
		addu zero, t0, t0
		move v0, zero
		hcall 1
		hcall 0
	`)
	tm.run(p, 100)
	if r := tm.record(1); r.v0 != 0 {
		t.Errorf("zero register = %d", r.v0)
	}
}

func TestCycleAccounting(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80002000
start:
		nop
		nop
		la  t0, pad
		lw  t1, 0(t0)
		hcall 0
pad: .word 0
	`)
	tm.run(p, 100)
	// 2 nops + 2 (la) + lw + hcall = 6 base; lw adds LoadStoreExtra.
	want := 6*tm.c.Cost.Inst + tm.c.Cost.LoadStoreExtra
	if tm.c.Cycles != want {
		t.Errorf("cycles = %d, want %d", tm.c.Cycles, want)
	}
	if tm.c.Insts != 6 {
		t.Errorf("insts = %d, want 6", tm.c.Insts)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	tm := newTestMachine(t)
	p := tm.load(`
		.org 0x80002000
start:
		b start
		nop
	`)
	tm.c.PC = p.MustSymbol("start")
	tm.c.NPC = tm.c.PC + 4
	if _, err := tm.c.Run(100); err == nil {
		t.Fatal("Run returned nil on infinite loop")
	}
}
