// Package cpu implements the execution core of the simulated machine:
// an in-order interpreter for the R3000-like ISA defined in
// internal/arch, with branch delay slots, precise synchronous
// exceptions, a software-managed TLB, the CP0 system-control registers,
// and cycle accounting at a configurable cost model.
//
// Two features model the paper's proposed hardware support (Section 2):
//
//   - Tera-style direct user-level exception delivery: when enabled, a
//     synchronous exception whose class the process has claimed is
//     delivered by loading the exception-condition register and
//     exchanging the PC with the exception-target register, without
//     entering the kernel. The XRET instruction exchanges back.
//   - A per-TLB-entry U bit allowing user code to amplify or restrict
//     protection (never translation) on its own entries via UTLBMOD.
//
// The CPU itself knows nothing about processes or Unix; the simulated
// kernel in internal/kernel builds those on top.
package cpu

import (
	"fmt"

	"uexc/internal/arch"
	"uexc/internal/mem"
	"uexc/internal/tlb"
)

// CostModel assigns cycle costs to dynamic events. The defaults model a
// 25 MHz R3000 with warm caches: single-cycle issue, an extra cycle for
// cache access on loads/stores, a short pipeline drain on exception
// entry, and R3000 multiply/divide latencies.
type CostModel struct {
	Inst           uint64 // base cost of every instruction
	LoadStoreExtra uint64 // additional cost of a memory access
	ExceptionEntry uint64 // pipeline flush + vector fetch on exception
	MultExtra      uint64 // additional cycles for mult/multu
	DivExtra       uint64 // additional cycles for div/divu
}

// DefaultCost is the calibrated warm-cache model.
func DefaultCost() CostModel {
	return CostModel{
		Inst:           1,
		LoadStoreExtra: 1,
		ExceptionEntry: 5,
		MultExtra:      11,
		DivExtra:       34,
	}
}

// ClockMHz is the simulated clock rate: the paper's 25 MHz DECstation
// 5000/200.
const ClockMHz = 25

// CyclesToMicros converts a cycle count to microseconds at ClockMHz.
func CyclesToMicros(cycles uint64) float64 { return float64(cycles) / ClockMHz }

// OSHooks bundles the kernel-owned CPU hooks behind one interface
// value (see CPU.OS). The simulated kernel implements it directly.
type OSHooks interface {
	// HCall is invoked by the kernel-mode HCALL instruction: the
	// simulated kernel's "compiled C" layer. It runs host-side with
	// full machine access and may charge cycles via CPU.Charge.
	// Returning an error halts simulation (a kernel panic).
	HCall(c *CPU, code uint32) error

	// OnUEXRecursion is called when a TeraMode machine suppresses
	// direct user delivery of a claimed exception because the UEX
	// recursion bit is already set (§2's double-fault indication). The
	// exception then proceeds down the architectural kernel path; the
	// hook lets the kernel record the recursion and arrange escalation
	// (fallback or controlled kill) before that delivery.
	OnUEXRecursion(e Exception)

	// OnUEXClear is called when an XRET instruction clears a set UEX
	// bit — a user-level handler just completed. The kernel uses it to
	// restore the u-area claim mask it blanked for the handler's
	// duration (the software analogue of the hardware UEX delivery
	// gate: while a handler is in progress, claimed exceptions must
	// take the kernel path so the in-progress exception frame is never
	// overwritten).
	OnUEXClear()
}

// Exception describes a raised exception for tracing and statistics.
type Exception struct {
	Code     uint32 // arch.Exc*
	PC       uint32 // address of the faulting instruction
	BadVAddr uint32 // for address/TLB errors
	InDelay  bool
	User     bool // taken from user mode
}

// InjectedFault is a synchronous exception forced by a fault injector
// (internal/faultinject): it is raised before the instruction at PC
// executes, as if the hardware had glitched.
type InjectedFault struct {
	Code     uint32
	BadVAddr uint32
	HasBV    bool
}

// CPU is the machine state. Construct with New.
type CPU struct {
	GPR [32]uint32
	HI  uint32
	LO  uint32

	// PC is the address of the next instruction to execute; NPC the one
	// after it (branches redirect NPC so the delay slot at PC still
	// runs).
	PC  uint32
	NPC uint32

	// CP0 registers, indexed by arch.C0*.
	CP0 [32]uint32

	// XT, XC, and XB are the proposed exception-target register and the
	// two condition registers (cause and bad address), all
	// user-accessible — the Tera carries exactly this per-thread state.
	XT uint32
	XC uint32
	XB uint32

	// TeraMode enables direct user-level delivery for exception classes
	// in UserVector (a bit per arch.Exc* code).
	TeraMode   bool
	UserVector uint32

	// FixedVector, when non-zero in TeraMode, selects §2.2's alternative
	// delivery specification: instead of exchanging PC with XT, the
	// hardware vectors to this fixed, architecturally-defined address in
	// the user address space (XT still receives the faulting PC so XRET
	// returns the same way).
	FixedVector uint32

	// HWUTLBMod selects whether the user-level TLB protection update
	// instruction is implemented in hardware. When false, a user-mode
	// UTLBMOD raises a reserved-instruction exception regardless of the
	// U bit, and the kernel may emulate the opcode — the software
	// variant of §3.2.3. New machines have the hardware (true).
	HWUTLBMod bool

	Mem *mem.Memory
	TLB *tlb.TLB

	// Engine is the three-way execution-tier switch (translate.go):
	// translated basic blocks (EngineJIT, the default), the fast-path
	// interpreter (EngineFast), or the uncached reference interpreter
	// (EngineInterp). All three are observationally identical, so the
	// switch only changes speed; tests flip it to verify exactly that.
	Engine Engine

	// InjectUserOnly declares that the installed Inject hook is a pure
	// no-op in kernel mode (returns nil, no side effects), which lets
	// the JIT translate kernel-mode code while a fault-injection
	// campaign is armed. internal/faultinject sets it; any injector
	// that observes kernel-mode steps must leave it false.
	InjectUserOnly bool

	// Micro-TLBs and the predecoded instruction cache (fastpath.go).
	itlb      [microEntries]utlbEntry
	dtlb      [microEntries]utlbEntry
	itlbClock uint8
	dtlbClock uint8
	microGen  uint64 // TLB.Gen the micro-TLBs were last synced to
	ipages    map[uint32]*pageInsts
	lastIPfn  uint32 // instsFor memo: pfn+1 (0 = empty)
	lastIPi   *pageInsts

	Cost   CostModel
	Cycles uint64
	Insts  uint64

	// FastHits counts accesses served entirely by the fast path (a
	// micro-TLB hit, counted or direct-mapped). Purely statistical —
	// never part of a determinism fingerprint — it feeds the serving
	// layer's metrics surface.
	FastHits uint64

	// Translation-tier statistics (translate.go), harvested into the
	// serving layer's metrics. Like FastHits these are purely
	// diagnostic — never part of a determinism fingerprint (block
	// shapes depend on pool reuse and engine selection).
	JITBlocks        uint64 // blocks compiled (including recompiles)
	JITExecs         uint64 // block executions that retired >= 1 inst
	JITGuardMisses   uint64 // entry guard mismatches (vpn/mode/counted)
	JITInvalidations uint64 // page-generation invalidations observed

	// MemWrites counts successful data stores; the watchdog uses it as a
	// cheap progress signal (a machine that stores is not livelocked by
	// pure register cycling alone).
	MemWrites uint64

	// OS receives the kernel upcalls (HCALL and the two Tera-mode UEX
	// notifications); nil makes HCALL a reserved instruction. One
	// interface value rather than three func fields keeps attaching an
	// OS allocation-free — an interface holding an existing pointer is
	// two words, where taking method values costs a closure allocation
	// each, which the fork-from-snapshot checkout path pays per machine.
	OS OSHooks

	// Inject, when non-nil, is consulted at the top of every Step; a
	// non-nil result raises that exception instead of executing the
	// instruction at PC. Hook point for internal/faultinject.
	Inject func(c *CPU) *InjectedFault

	// Watchdog, when non-nil, monitors Run for livelock.
	Watchdog *Watchdog

	// Halted stops Run; set by the kernel's exit path.
	Halted bool

	// CountPCs enables per-PC dynamic instruction counting (used to
	// reproduce Table 3's per-phase kernel instruction counts).
	CountPCs bool
	PCCounts map[uint32]uint64

	// ExcCounts tallies raised exceptions by code; Trace, when non-nil,
	// receives every exception.
	ExcCounts [32]uint64
	Trace     func(Exception)

	// Debug, when non-nil, attaches a virtual-breakpoint guard table
	// (debug.go): Step pauses the CPU (Halted, Debug.Hit) before any
	// instruction that fetches from or touches a guarded page, with
	// zero architectural effect and zero accounting. While attached the
	// JIT tier stands down so every instruction is checked.
	Debug *DebugGuard

	prevWasBranch bool // previous executed instruction was a branch/jump

	// redirect marks that execute() replaced PC/NPC itself (XRET, RFE
	// return paths that must bypass the fall-through update).
	redirect bool
	// execNPC/execBranch carry the control-flow result out of execute():
	// the instruction after the delay slot and whether a branch was taken
	// (scratch state valid only within one Step).
	execNPC    uint32
	execBranch bool
	// pendingHookErr carries an HCALL hook failure out of execute().
	pendingHookErr error
}

// New creates a CPU attached to the given memory and TLB, with PC at the
// reset vector and kernel mode active.
func New(m *mem.Memory, t *tlb.TLB) *CPU { return Init(new(CPU), m, t) }

// Init initializes a CPU in place, for callers that embed one in a
// larger allocation (the fork shell builds a whole machine from a
// single allocation; see kernel.NewForRestore). c must be zero-valued
// — a fresh allocation — so only the non-zero fields need writing;
// rewriting a used CPU is RestoreState's job, not Init's.
func Init(c *CPU, m *mem.Memory, t *tlb.TLB) *CPU {
	c.Mem, c.TLB = m, t
	c.Cost = DefaultCost()
	c.HWUTLBMod = true
	c.Engine = DefaultEngine
	c.Reset()
	return c
}

// Reset re-initializes architectural state (memory and TLB contents are
// left alone; callers reset those separately if desired).
func (c *CPU) Reset() {
	c.GPR = [32]uint32{}
	c.HI, c.LO = 0, 0
	c.CP0 = [32]uint32{}
	c.CP0[arch.C0PRId] = 0x0230 // R3000-ish revision id
	c.PC = arch.VecReset
	c.NPC = c.PC + 4
	c.XT, c.XC, c.XB = 0, 0, 0
	c.Halted = false
	c.prevWasBranch = false
	c.flushMicroTLB()
}

// Charge adds cycles outside normal instruction accounting; used by the
// kernel's modeled C phases.
func (c *CPU) Charge(cycles uint64) { c.Cycles += cycles }

// KernelMode reports whether the CPU is currently privileged
// (Status.KUc == 0).
func (c *CPU) KernelMode() bool { return c.CP0[arch.C0Status]&arch.SrKUc == 0 }

// ASID returns the current address-space identifier from EntryHi.
func (c *CPU) ASID() uint8 {
	return uint8(c.CP0[arch.C0EntryHi] & tlb.HiASIDMask >> tlb.HiASIDShft)
}

// excSignal carries a pending exception out of instruction execution.
type excSignal struct {
	code  uint32
	badva uint32
	hasBV bool
	// refill marks a TLB miss (no matching entry) on a kuseg address,
	// which vectors through the special UTLB-miss vector.
	refill bool
}

func (e *excSignal) Error() string {
	return fmt.Sprintf("exception %s badva=%#x", arch.ExcName(e.code), e.badva)
}

func exc(code uint32) *excSignal { return &excSignal{code: code} }

func excAddr(code, badva uint32, refill bool) *excSignal {
	return &excSignal{code: code, badva: badva, hasBV: true, refill: refill}
}

// AccessKind distinguishes translation purposes.
type AccessKind uint8

const (
	AccFetch AccessKind = iota
	AccLoad
	AccStore
)

// translate maps a virtual address to physical for the given access
// kind, raising the architectural exception on failure. On success it
// also describes the translation for micro-TLB filling: whether it went
// through the TLB (counted, for hit statistics) and whether it permits
// stores.
func (c *CPU) translate(va uint32, kind AccessKind) (uint32, fillInfo, *excSignal) {
	user := !c.KernelMode()
	loadCode, storeCode := arch.ExcAdEL, arch.ExcAdES
	switch {
	case arch.InKUSeg(va):
		e, _, ok := c.TLB.Lookup(va, c.ASID())
		if !ok {
			code := arch.ExcTLBL
			if kind == AccStore {
				code = arch.ExcTLBS
			}
			return 0, fillInfo{}, excAddr(code, va, true)
		}
		if !e.Valid() {
			code := arch.ExcTLBL
			if kind == AccStore {
				code = arch.ExcTLBS
			}
			return 0, fillInfo{}, excAddr(code, va, false)
		}
		if kind == AccStore && !e.Writable() {
			return 0, fillInfo{}, excAddr(arch.ExcMod, va, false)
		}
		return e.PFN()<<arch.PageShift | va&(arch.PageSize-1),
			fillInfo{counted: true, writable: e.Writable()}, nil
	case arch.InKSeg0(va), arch.InKSeg1(va):
		if user {
			code := loadCode
			if kind == AccStore {
				code = storeCode
			}
			return 0, fillInfo{}, excAddr(code, va, false)
		}
		return arch.KSegPhys(va), fillInfo{counted: false, writable: true}, nil
	default: // kseg2: kernel, mapped
		if user {
			code := loadCode
			if kind == AccStore {
				code = storeCode
			}
			return 0, fillInfo{}, excAddr(code, va, false)
		}
		e, _, ok := c.TLB.Lookup(va, c.ASID())
		if !ok || !e.Valid() {
			code := arch.ExcTLBL
			if kind == AccStore {
				code = arch.ExcTLBS
			}
			return 0, fillInfo{}, excAddr(code, va, false)
		}
		if kind == AccStore && !e.Writable() {
			return 0, fillInfo{}, excAddr(arch.ExcMod, va, false)
		}
		return e.PFN()<<arch.PageShift | va&(arch.PageSize-1),
			fillInfo{counted: true, writable: e.Writable()}, nil
	}
}

func (c *CPU) loadWord(va uint32) (uint32, *excSignal) {
	if va&3 != 0 {
		return 0, excAddr(arch.ExcAdEL, va, false)
	}
	if e := c.dtlbLookup(va, false); e != nil {
		if e.counted {
			c.TLB.Hits++
		}
		return e.page.Word(va), nil
	}
	pa, fi, sig := c.translate(va, AccLoad)
	if sig != nil {
		return 0, sig
	}
	v, err := c.Mem.LoadWord(pa)
	if err != nil {
		return 0, excAddr(arch.ExcDBE, va, false)
	}
	c.fillDTLB(va, pa, fi)
	return v, nil
}

func (c *CPU) loadHalf(va uint32) (uint16, *excSignal) {
	if va&1 != 0 {
		return 0, excAddr(arch.ExcAdEL, va, false)
	}
	if e := c.dtlbLookup(va, false); e != nil {
		if e.counted {
			c.TLB.Hits++
		}
		return e.page.Half(va), nil
	}
	pa, fi, sig := c.translate(va, AccLoad)
	if sig != nil {
		return 0, sig
	}
	v, err := c.Mem.LoadHalf(pa)
	if err != nil {
		return 0, excAddr(arch.ExcDBE, va, false)
	}
	c.fillDTLB(va, pa, fi)
	return v, nil
}

func (c *CPU) loadByte(va uint32) (uint8, *excSignal) {
	if e := c.dtlbLookup(va, false); e != nil {
		if e.counted {
			c.TLB.Hits++
		}
		return e.page.Byte(va), nil
	}
	pa, fi, sig := c.translate(va, AccLoad)
	if sig != nil {
		return 0, sig
	}
	v, err := c.Mem.LoadByte(pa)
	if err != nil {
		return 0, excAddr(arch.ExcDBE, va, false)
	}
	c.fillDTLB(va, pa, fi)
	return v, nil
}

func (c *CPU) storeWord(va, v uint32) *excSignal {
	if va&3 != 0 {
		return excAddr(arch.ExcAdES, va, false)
	}
	if e := c.dtlbLookup(va, true); e != nil {
		if e.counted {
			c.TLB.Hits++
		}
		e.page.SetWord(va, v)
		c.MemWrites++
		return nil
	}
	pa, fi, sig := c.translate(va, AccStore)
	if sig != nil {
		return sig
	}
	if err := c.Mem.StoreWord(pa, v); err != nil {
		return excAddr(arch.ExcDBE, va, false)
	}
	c.MemWrites++
	c.fillDTLB(va, pa, fi)
	return nil
}

func (c *CPU) storeHalf(va uint32, v uint16) *excSignal {
	if va&1 != 0 {
		return excAddr(arch.ExcAdES, va, false)
	}
	if e := c.dtlbLookup(va, true); e != nil {
		if e.counted {
			c.TLB.Hits++
		}
		e.page.SetHalf(va, v)
		c.MemWrites++
		return nil
	}
	pa, fi, sig := c.translate(va, AccStore)
	if sig != nil {
		return sig
	}
	if err := c.Mem.StoreHalf(pa, v); err != nil {
		return excAddr(arch.ExcDBE, va, false)
	}
	c.MemWrites++
	c.fillDTLB(va, pa, fi)
	return nil
}

func (c *CPU) storeByte(va uint32, v uint8) *excSignal {
	if e := c.dtlbLookup(va, true); e != nil {
		if e.counted {
			c.TLB.Hits++
		}
		e.page.SetByte(va, v)
		c.MemWrites++
		return nil
	}
	pa, fi, sig := c.translate(va, AccStore)
	if sig != nil {
		return sig
	}
	if err := c.Mem.StoreByte(pa, v); err != nil {
		return excAddr(arch.ExcDBE, va, false)
	}
	c.MemWrites++
	c.fillDTLB(va, pa, fi)
	return nil
}

// raise delivers a pending exception: either the architectural kernel
// path (save to EPC/Cause/Status, vector) or, in TeraMode for claimed
// user-mode exceptions, the direct user-level exchange.
func (c *CPU) raise(sig *excSignal, instPC uint32, inDelay bool) {
	user := !c.KernelMode()
	c.ExcCounts[sig.code&31]++
	if c.Trace != nil {
		c.Trace(Exception{Code: sig.code, PC: instPC, BadVAddr: sig.badva, InDelay: inDelay, User: user})
	}

	epc := instPC
	if inDelay {
		epc = instPC - 4
	}

	sr := c.CP0[arch.C0Status]
	if c.TeraMode && user && sr&arch.SrUEX != 0 && c.UserVector&(1<<sig.code) != 0 &&
		c.OS != nil {
		// A claimed exception arrived while a user-level handler was
		// already in progress: the UEX bit forces the kernel path, and
		// the hook gives the OS its chance to police the recursion.
		c.OS.OnUEXRecursion(Exception{Code: sig.code, PC: instPC, BadVAddr: sig.badva, InDelay: inDelay, User: user})
	}
	if c.TeraMode && user && sr&arch.SrUEX == 0 && c.UserVector&(1<<sig.code) != 0 {
		// Direct user-level delivery (Tera-style): load condition
		// register, exchange PC and XT, mark UEX. No privilege change,
		// no kernel entry.
		c.XC = sig.code << arch.CauseExcShift
		if inDelay {
			c.XC |= arch.CauseBD
		}
		if sig.hasBV {
			c.CP0[arch.C0BadVAddr] = sig.badva
			c.XB = sig.badva
		}
		c.CP0[arch.C0Status] = sr | arch.SrUEX
		if c.FixedVector != 0 {
			c.XT, c.PC = epc, c.FixedVector
		} else {
			c.XT, c.PC = epc, c.XT
		}
		c.NPC = c.PC + 4
		c.prevWasBranch = false
		c.Cycles += c.Cost.ExceptionEntry
		return
	}

	// Architectural kernel delivery.
	c.CP0[arch.C0EPC] = epc
	cause := sig.code << arch.CauseExcShift
	if inDelay {
		cause |= arch.CauseBD
	}
	c.CP0[arch.C0Cause] = cause
	if sig.hasBV {
		c.CP0[arch.C0BadVAddr] = sig.badva
		c.CP0[arch.C0EntryHi] = sig.badva&tlb.HiVPNMask |
			c.CP0[arch.C0EntryHi]&tlb.HiASIDMask
		c.CP0[arch.C0Context] = c.CP0[arch.C0Context]&0xffe00000 |
			sig.badva>>arch.PageShift&0x7ffff<<2
	}
	// Push the KU/IE stack and enter kernel mode with interrupts off.
	c.CP0[arch.C0Status] = sr&^0x3f | sr&0xf<<2

	vec := arch.VecGeneral
	if sig.refill && user {
		vec = arch.VecUTLBMiss
	}
	c.PC = vec
	c.NPC = vec + 4
	c.prevWasBranch = false
	c.Cycles += c.Cost.ExceptionEntry
}

// RaiseExternal lets the simulated kernel's host-side code re-raise an
// exception through the architectural path (used by the subpage
// emulation to re-deliver a fault as if it had just occurred at pc).
func (c *CPU) RaiseExternal(code, badva, pc uint32, inDelay bool) {
	sig := &excSignal{code: code, badva: badva, hasBV: true}
	if inDelay {
		pc += 4 // raise() will subtract it back
	}
	c.raise(sig, pc, inDelay)
}

// Step executes one instruction (or takes one exception). It returns an
// error only for simulator-level failures (kernel hook errors), never
// for architectural exceptions.
func (c *CPU) Step() error {
	instPC := c.PC
	inDelay := c.prevWasBranch

	if c.Debug != nil && c.Debug.pages[instPC>>arch.PageShift]&DebugFetch != 0 {
		// Pause before the instruction exists architecturally: no fetch,
		// no fault, no injection, no accounting.
		c.debugPause(instPC, instPC, DebugFetch)
		return nil
	}

	if c.Inject != nil {
		if f := c.Inject(c); f != nil {
			c.raise(&excSignal{code: f.Code, badva: f.BadVAddr, hasBV: f.HasBV}, instPC, inDelay)
			return nil
		}
	}

	if instPC&3 != 0 || (!c.KernelMode() && !arch.InKUSeg(instPC)) {
		c.raise(excAddr(arch.ExcAdEL, instPC, false), instPC, inDelay)
		return nil
	}
	var inst arch.Inst
	if e := c.itlbLookup(instPC); e != nil {
		if e.counted {
			c.TLB.Hits++
		}
		// Manually inlined pageInsts.fetch: this is the hottest line of
		// the whole simulator.
		pi := e.insts
		w := instPC & (arch.PageSize - 1) >> 2
		if g := e.page.Gen(); pi.gen == g && pi.filled[w>>6]&(1<<(w&63)) != 0 {
			inst = pi.insts[w]
		} else {
			inst = pi.fetch(e.page, instPC)
		}
	} else {
		pa, fi, sig := c.translate(instPC, AccFetch)
		if sig != nil {
			c.raise(sig, instPC, inDelay)
			return nil
		}
		if pg := c.Mem.PageRef(pa); pg != nil && !c.fastOff() {
			// Decode through the predecode cache even when the micro-TLBs
			// are bypassed (InjectMiss installed): decoding is pure and
			// the cache is generation-checked, so the result is identical.
			pi := c.instsFor(pa, pg)
			w := pa & (arch.PageSize - 1) >> 2
			if g := pg.Gen(); pi.gen == g && pi.filled[w>>6]&(1<<(w&63)) != 0 {
				inst = pi.insts[w]
			} else {
				inst = pi.fetch(pg, instPC)
			}
			c.fillITLB(instPC, fi, pg, pi)
		} else {
			w, err := c.Mem.LoadWord(pa)
			if err != nil {
				c.raise(excAddr(arch.ExcIBE, instPC, false), instPC, inDelay)
				return nil
			}
			inst = arch.Decode(w)
		}
	}
	if c.Debug != nil {
		if va, acc, ok := debugDataEA(&inst, &c.GPR); ok {
			if hit := c.Debug.pages[va>>arch.PageShift] & acc; hit != 0 {
				// Pause before the access (and before the instruction
				// retires): zero architectural effect, zero accounting,
				// even if the access would have faulted.
				c.debugPause(instPC, va, hit)
				return nil
			}
		}
	}
	c.Insts++
	c.Cycles += c.Cost.Inst
	if c.CountPCs {
		if c.PCCounts == nil {
			c.PCCounts = make(map[uint32]uint64)
		}
		c.PCCounts[instPC]++
	}

	// Default control flow: fall through to NPC; execute's branch cases
	// redirect execNPC via branchTo.
	nextPC := c.NPC
	c.execNPC = c.NPC + 4
	c.execBranch = false

	if sig := c.execute(&inst, instPC); sig != nil {
		// Faulting instruction has no architectural effect; deliver.
		c.raise(sig, instPC, inDelay)
		return nil
	}

	// XRET and RFE-to-user redirections adjust PC directly in execute
	// via the redirect fields below.
	if c.redirect {
		c.redirect = false
		c.prevWasBranch = false
		return c.hookErr()
	}

	c.PC, c.NPC = nextPC, c.execNPC
	c.prevWasBranch = c.execBranch
	c.GPR[0] = 0
	return c.hookErr()
}

// branchTo redirects the instruction after the delay slot; called by
// execute's branch and jump cases.
func (c *CPU) branchTo(target uint32) {
	c.execNPC = target
	c.execBranch = true
}

func (c *CPU) hookErr() error {
	err := c.pendingHookErr
	c.pendingHookErr = nil
	return err
}

// Run executes until the CPU halts or maxInsts instructions have
// retired. It returns the number of instructions executed. Budget
// exhaustion is reported as a *BudgetError; if a Watchdog is attached
// and detects a state cycle, Run stops early with a *LivelockError.
//
// Under EngineJIT, Run dispatches translated basic blocks where
// jitStep can prove exactness and falls back to single interpreter
// steps everywhere else. The watchdog observes at block granularity
// on the JIT path: the detector is exact (it fires only on true state
// cycles), so coarser observation can only shift *when* a livelock is
// caught, never *whether*.
func (c *CPU) Run(maxInsts uint64) (uint64, error) {
	start := c.Insts
	for !c.Halted && c.Insts-start < maxInsts {
		if c.Engine == EngineJIT && c.jitStep(maxInsts-(c.Insts-start)) {
			if c.Watchdog != nil {
				if err := c.Watchdog.Observe(c); err != nil {
					return c.Insts - start, err
				}
			}
			continue
		}
		if err := c.Step(); err != nil {
			return c.Insts - start, err
		}
		if c.Watchdog != nil {
			if err := c.Watchdog.Observe(c); err != nil {
				return c.Insts - start, err
			}
		}
	}
	if !c.Halted {
		return c.Insts - start, &BudgetError{Budget: maxInsts, PC: c.PC}
	}
	return c.Insts - start, nil
}
