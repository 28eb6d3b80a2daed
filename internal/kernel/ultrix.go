package kernel

import (
	"uexc/internal/arch"
	"uexc/internal/tlb"
)

// Costs are the cycle charges for the kernel phases that Ultrix
// implemented in compiled C and that this simulation runs host-side.
// The assembly first-level handlers are executed and therefore need no
// charges. Values are calibrated so that the *Ultrix baseline* matches
// the anchors the paper publishes for the DECstation 5000/200 at
// 25 MHz:
//
//   - null system call (getpid):            ~12 µs   (§3.3)
//   - simple exception round trip:          ~80 µs   (Table 2)
//   - write-protection fault delivery:      ~60 µs   (Table 2)
//
// The division among posting/recognition/delivery follows the three-
// phase structure of §3.1.  Cycle counts are "C-code path lengths" at
// roughly 1.3 cycles/instruction, the measured CPI of the era's
// compiled kernel code.
type Costs struct {
	TrapEntry    uint64 // trap(): decode exception, build environment
	Post         uint64 // psignal(): set signal bit, siglist bookkeeping
	Recognize    uint64 // issignal()/CURSIG on the way back to user
	Sendsig      uint64 // sendsig() body beyond the sigcontext copy
	CopyWord     uint64 // per-word copyin/copyout of the sigcontext
	Sigreturn    uint64 // sigreturn() body beyond the copyin
	SyscallBase  uint64 // syscall dispatch: validate, table, copyargs
	SyscallBody  uint64 // trivial syscall body (getpid)
	MprotectPage uint64 // per-page PTE rewrite + TLB shootdown
	DemandPage   uint64 // demand-zero fill: allocate, zero, enter PTE

	// Fast-path C portions (§3.2.2-3.2.4).
	ProtLookup   uint64 // read PTEs, vm_map + shared-memory checks
	ProtAmplify  uint64 // eager amplification: set D in PTE + TLB
	SubpageCheck uint64 // consult the subpage bitmap
	EmulLoad     uint64 // emulate a faulting load/store (per word)
	EmulBranch   uint64 // additionally emulate the branch (delay slot)
	ResumeRegs   uint64 // restore scratch registers on kernel resume
}

// DefaultCosts returns the calibrated model.
func DefaultCosts() Costs {
	return Costs{
		TrapEntry:    180,
		Post:         270,
		Recognize:    230,
		Sendsig:      330,
		CopyWord:     7,
		Sigreturn:    150,
		SyscallBase:  180,
		SyscallBody:  40,
		MprotectPage: 75,
		DemandPage:   500,

		ProtLookup:   130,
		ProtAmplify:  60,
		SubpageCheck: 90,
		EmulLoad:     45,
		EmulBranch:   25,
		ResumeRegs:   30,
	}
}

// Unix signal numbers used by the exception-to-signal mapping.
const (
	SIGILL  = 4
	SIGTRAP = 5
	SIGFPE  = 8
	SIGBUS  = 10
	SIGSEGV = 11
)

// signalFor maps an exception code to its Unix signal.
func signalFor(code uint32) uint32 {
	switch code {
	case arch.ExcMod, arch.ExcTLBL, arch.ExcTLBS:
		return SIGSEGV
	case arch.ExcAdEL, arch.ExcAdES, arch.ExcDBE, arch.ExcIBE:
		return SIGBUS
	case arch.ExcBp:
		return SIGTRAP
	case arch.ExcOv:
		return SIGFPE
	case arch.ExcRI, arch.ExcCpU:
		return SIGILL
	}
	return SIGILL
}

// trapframe gives host-side access to the register save area the slow
// path built on the kernel stack.
type trapframe struct{ k *Kernel }

func (t trapframe) base() uint32 { return KStackTop - TrapframeSize }

func (t trapframe) word(off uint32) uint32 {
	return t.k.loadKernelWord(t.base() + off)
}

func (t trapframe) setWord(off, v uint32) {
	t.k.storeKernelWord(t.base()+off, v)
}

// reg reads saved register r (1..31, excluding k0/k1 which are not
// saved; gp..ra live at their slots).
func (t trapframe) reg(r arch.Reg) uint32 {
	off, ok := tfSlot(r)
	if !ok {
		return 0
	}
	return t.word(off)
}

func (t trapframe) setReg(r arch.Reg, v uint32) {
	if off, ok := tfSlot(r); ok {
		t.setWord(off, v)
	}
}

// tfSlot maps a register to its trapframe offset.
func tfSlot(r arch.Reg) (uint32, bool) {
	switch {
	case r == arch.RegZero, r == arch.RegK0, r == arch.RegK1:
		return 0, false
	case r >= arch.RegAT && r <= arch.RegT7: // at..t7: slots 0..14
		return uint32(r-arch.RegAT) * 4, true
	case r >= arch.RegS0 && r <= arch.RegS7:
		return TfS0 + uint32(r-arch.RegS0)*4, true
	case r == arch.RegT8:
		return TfT8, true
	case r == arch.RegT9:
		return TfT9, true
	case r == arch.RegGP:
		return TfGP, true
	case r == arch.RegSP:
		return TfSP, true
	case r == arch.RegFP:
		return TfFP, true
	case r == arch.RegRA:
		return TfRA, true
	}
	return 0, false
}

// ultrixTrap is the C-level trap() handler: the slow path for every
// exception the fast mechanism does not claim. It mirrors the structure
// described in §3.1: decode, then either syscall dispatch, page-fault
// service, or the three-phase signal machinery.
func (k *Kernel) ultrixTrap() error {
	tf := trapframe{k}
	k.Charge(k.Costs.TrapEntry)

	cause := tf.word(TfCause)
	code := cause & arch.CauseExcMask >> arch.CauseExcShift
	k.eventf("kernel: trap() decode, exccode=%s", arch.ExcName(code))

	switch code {
	case arch.ExcSys:
		return k.syscallFromTrapframe()
	case arch.ExcRI:
		// §3.2.3: without the proposed hardware, user-level TLB
		// protection modification can be provided "through software
		// emulation of unused opcodes in the kernel". A UTLBMOD
		// executed on a machine without the hardware raises RI; the
		// kernel decodes and emulates it here (more slowly — page
		// tables and TLB state must be touched in C).
		if handled, err := k.emulateUTLBModOpcode(tf); err != nil || handled {
			return err
		}
		k.slowPathRecursion(code, tf.word(TfBadVA))
		return k.postSignal(signalFor(code), code, tf.word(TfBadVA))
	case arch.ExcMod, arch.ExcTLBL, arch.ExcTLBS:
		badva := tf.word(TfBadVA)
		handled, err := k.pageFaultService(badva, code)
		if err != nil {
			return err
		}
		if handled {
			// Transparent: retry the faulting instruction.
			k.event("kernel: page fault serviced, retry")
			return nil
		}
		// Genuine protection violation: a claimed class arriving here
		// with UEX set was deflected by the recursion gate — escalate
		// before signaling.
		k.slowPathRecursion(code, badva)
		return k.postSignal(signalFor(code), code, badva)
	default:
		k.slowPathRecursion(code, tf.word(TfBadVA))
		return k.postSignal(signalFor(code), code, tf.word(TfBadVA))
	}
}

// emulateUTLBModOpcode implements the software variant of §3.2.3: a
// reserved-instruction fault whose faulting word is UTLBMOD is emulated
// by the kernel, honoring the same U-bit permission model the hardware
// would enforce but paying for page-table access in "C". Returns
// handled=false if the instruction is not an emulatable UTLBMOD or the
// permission check fails (the caller then signals SIGILL, the same
// last-chance behaviour as any other reserved instruction).
func (k *Kernel) emulateUTLBModOpcode(tf trapframe) (bool, error) {
	if tf.word(TfCause)&arch.CauseBD != 0 {
		return false, nil // not emulated from a branch delay slot
	}
	epc := tf.word(TfEPC)
	word, ok := k.loadUserWord(epc)
	if !ok {
		return false, nil
	}
	inst := arch.Decode(word)
	if inst.Mn != arch.MnUTLBMOD {
		return false, nil
	}
	va := tf.reg(inst.Rs)
	prot := tf.reg(inst.Rt)

	p := k.Proc
	vpn := va >> arch.PageShift
	pte, okPTE := p.pte(vpn)
	// The emulation walks the page table and validates the U bit —
	// the work the paper warns "may not provide acceptable
	// performance" relative to the hardware path.
	k.Charge(k.Costs.ProtLookup + k.Costs.ProtAmplify)
	if !okPTE || pte&pteAlloc == 0 || pte&tlb.LoU == 0 {
		return false, nil // not permitted: fall through to SIGILL
	}
	pte &^= tlb.LoV | tlb.LoD
	if prot&2 != 0 {
		pte |= tlb.LoV
	}
	if prot&1 != 0 {
		pte |= tlb.LoD
	}
	p.setPTE(vpn, pte)
	if _, idx, hit := k.TLB.Lookup(va, p.asid); hit {
		k.TLB.UpdateProtection(idx, prot&1 != 0, prot&2 != 0)
	}
	tf.setWord(TfEPC, epc+4) // skip the emulated instruction
	k.Stats.UTLBEmuls++
	k.event("kernel: emulated utlbmod opcode (software §3.2.3)")
	return true, nil
}

// pageFaultService handles demand paging for legitimate addresses.
// It reports handled=false for genuine protection violations.
func (k *Kernel) pageFaultService(badva, code uint32) (bool, error) {
	p := k.Proc
	// A lying TLB entry (soft error) is scrubbed and the access retried;
	// see scrubTLB. Ordered first so an upset entry cannot masquerade as
	// a protection violation and loop through the signal path.
	if k.scrubTLB(badva) {
		return true, nil
	}
	vpn := badva >> arch.PageShift
	pte, ok := p.pte(vpn)
	if !ok {
		return false, nil
	}
	switch {
	case pte&pteAlloc == 0:
		// Unallocated: demand-zero if the region is legitimate.
		if !p.legitimateVA(badva) {
			return false, nil
		}
		if err := p.MapPage(badva, p.regionWritable(badva), p.regionWritable(badva)); err != nil {
			return false, err
		}
		k.Charge(k.Costs.DemandPage)
		k.Stats.PageFaults++
		return true, nil
	case code == arch.ExcMod, code == arch.ExcTLBS && pte&tlb.LoV != 0:
		// Write to a clean page: protection violation (mprotect'ed or
		// read-only region), not a paging event.
		return false, nil
	case pte&tlb.LoV == 0:
		// Allocated but invalid: user protected it with PROT_NONE.
		return false, nil
	}
	return false, nil
}

// postSignal runs the Unix three-phase machinery: posting, recognition,
// and delivery via sendsig (or termination if no handler is installed).
func (k *Kernel) postSignal(sig, code, badva uint32) error {
	p := k.Proc
	k.Charge(k.Costs.Post)
	k.eventf("kernel: psignal posts signal %d", sig)

	k.Charge(k.Costs.Recognize)
	k.event("kernel: signal recognized on return to user")

	handler := p.sigHandlers[sig&31]
	if handler != 0 && p.trampolineVA == 0 {
		// A handler without a registered trampoline cannot be invoked;
		// treat as unhandled rather than vectoring user code to 0.
		handler = 0
	}
	if p.forceKill {
		// Escalation condemned the process (see escalate.go): no user
		// handler may intercept its death.
		p.forceKill = false
		handler = 0
	}
	if handler == 0 {
		k.Stats.Terminations++
		k.eventf("kernel: no handler, terminating with signal %d", sig)
		k.terminateCurrent(128 + sig)
		return nil
	}
	return k.sendsig(handler, sig, code, badva)
}

// sendsig builds a sigcontext on the user stack, redirects the
// trapframe to the signal trampoline, and arranges the handler call
// arguments — the Ultrix delivery phase.
func (k *Kernel) sendsig(handler, sig, code, badva uint32) error {
	tf := trapframe{k}
	p := k.Proc

	sp := tf.word(TfSP)
	scp := (sp - uint32(TfWords*4) - 16) &^ 7 // sigcontext below current stack

	// Copy the entire trapframe out to user space as the sigcontext.
	// The destination translation is memoized per page: nothing executes
	// between iterations, so the PTE cannot change except through the
	// MapPage retry below, which refreshes the memo.
	memoVPN, memoBase := ^uint32(0), uint32(0)
	for i := uint32(0); i < TfWords; i++ {
		v := tf.word(i * 4)
		va := scp + i*4
		if va>>arch.PageShift == memoVPN {
			if k.Mem.StoreWord(memoBase|va&(arch.PageSize-1), v) == nil {
				continue
			}
			memoVPN = ^uint32(0) // fall through to the uncached path
		}
		if pa, ok := k.Proc.translate(va); ok && k.Mem.StoreWord(pa, v) == nil {
			memoVPN, memoBase = va>>arch.PageShift, pa&^(arch.PageSize-1)
			continue
		}
		// The stack page may itself be unmapped: map and retry once. If
		// even that fails the process's stack pointer is garbage (its
		// own doing or an injected corruption) — like Unix, a signal
		// frame that cannot be written kills the process with SIGSEGV;
		// it must never surface as a fatal machine error.
		if err := p.MapPage(va, true, true); err != nil {
			return k.sendsigKill(va)
		}
		k.Charge(k.Costs.DemandPage)
		if !k.storeUserWord(va, v) {
			return k.sendsigKill(va)
		}
		memoVPN = ^uint32(0)
	}
	k.Charge(k.Costs.Sendsig + uint64(TfWords)*k.Costs.CopyWord)

	// Redirect: on exception return, control enters the trampoline with
	// the handler address and signal arguments in place.
	tf.setWord(TfEPC, p.trampolineVA)
	tf.setReg(arch.RegA0, sig)
	tf.setReg(arch.RegA1, code)
	tf.setReg(arch.RegA2, scp)
	tf.setReg(arch.RegA3, handler)
	tf.setReg(arch.RegSP, scp)

	k.Stats.UnixDeliveries++
	k.event("kernel: sendsig copies sigcontext, redirects to trampoline")
	return nil
}

// sendsigKill terminates the current process after a sigcontext
// copyout failure — the Unix verdict for an unwritable signal stack.
func (k *Kernel) sendsigKill(va uint32) error {
	k.eventf("kernel: sendsig copyout failed at %#x, killing", va)
	k.Stats.Terminations++
	k.terminateCurrent(128 + SIGSEGV)
	return nil
}

// sigreturn restores the sigcontext the trampoline passes back.
// Syscalls arrive via the light save path, so sigreturn — the one
// syscall that rewrites the whole register file — restores registers
// directly and leaves the light path's slots (v0, sp, EPC, status) in
// the trapframe for the assembly restore. Status is sanitized so user
// code cannot re-enter the kernel privileged.
func (k *Kernel) sigreturn(scp uint32) error {
	c := k.CPU
	tf := trapframe{k}
	var sc [TfWords]uint32
	// Source translation memoized per page, as in sendsig's copyout.
	memoVPN, memoBase := ^uint32(0), uint32(0)
	for i := uint32(0); i < TfWords; i++ {
		va := scp + i*4
		var v uint32
		ok := false
		if va>>arch.PageShift == memoVPN {
			if w, err := k.Mem.LoadWord(memoBase | va&(arch.PageSize-1)); err == nil {
				v, ok = w, true
			}
		}
		if !ok {
			if pa, transOK := k.Proc.translate(va); transOK {
				if w, err := k.Mem.LoadWord(pa); err == nil {
					v, ok = w, true
					memoVPN, memoBase = va>>arch.PageShift, pa&^(arch.PageSize-1)
				}
			}
		}
		if !ok {
			// A sigreturn pointing at an unreadable sigcontext means the
			// process corrupted its own stack (or a fault injector did):
			// like Unix, kill the caller rather than the machine.
			k.eventf("kernel: sigreturn copyin failed at %#x, killing", scp+i*4)
			k.Stats.Terminations++
			k.terminateCurrent(128 + SIGSEGV)
			return nil
		}
		sc[i] = v
	}
	for r := arch.RegAT; r <= arch.RegRA; r++ {
		if off, ok := tfSlot(r); ok {
			c.GPR[r] = sc[off/4]
		}
	}
	c.HI, c.LO = sc[TfHI/4], sc[TfLO/4]
	tf.setWord(TfV0, sc[TfV0/4])
	tf.setWord(TfSP, sc[TfSP/4])
	tf.setWord(TfEPC, sc[TfEPC/4])
	// Restore only the user-legitimate Status bits from the sigcontext
	// — the KU/IE stack and the UEX flag. Everything else (coprocessor-
	// usable, BEV, interrupt masks) is kernel-owned and kept from the
	// live trapframe: a corrupted sigcontext must not be able to set
	// CU1 and steer the next exception into the first-level handler's
	// panic leg, or clear KUp and re-enter the kernel privileged.
	const sigUserStatus = 0x3f | arch.SrUEX
	tf.setWord(TfStatus,
		tf.word(TfStatus)&^uint32(sigUserStatus)|sc[TfStatus/4]&sigUserStatus|arch.SrKUp)
	k.Charge(k.Costs.Sigreturn + uint64(TfWords)*k.Costs.CopyWord)
	k.event("kernel: sigreturn restores sigcontext")
	return nil
}

// Charge adds host-phase cycles.
func (k *Kernel) Charge(cycles uint64) { k.CPU.Charge(cycles) }
