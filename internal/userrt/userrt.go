// Package userrt is the simulated user-mode runtime: the assembly
// fragments every user program links against. It provides process
// startup, the Unix signal trampoline, and the two low-level fast
// exception handlers the paper describes — a general one that saves
// "the same state as Ultrix" for fair comparison (§3.3), and a
// specialized minimal one like the pointer-swizzling handler of §4.2.2.
//
// A program is assembled as the prelude followed by the user text
// (Assemble); the user text must define "main". Conventions:
//
//   - main is entered with sp set; returning from main exits with
//     v0 as status.
//   - The C-level fast handler is registered by storing its address at
//     __fexc_chandler; it is called with a0 = the exception frame VA
//     and may rewrite the frame (e.g. advance the resume PC at 0(a0)).
//   - Unix handlers are registered with the sigaction syscall; the
//     trampoline address __sig_trampoline is passed along once.
package userrt

import (
	"fmt"
	"sync"

	"uexc/internal/asm"
	"uexc/internal/kernel"
)

// Prelude returns the runtime assembly that precedes every user
// program at kernel.UserTextBase. It is rendered once per process: its
// equates are constants.
func Prelude() string { return prelude }

// Parsed returns the prelude's text pass. It is parsed once per
// process, on first use, and shared read-only by every assembly.
var Parsed = sync.OnceValue(func() *asm.Text { return asm.Parse(prelude) })

// Assemble assembles a user program behind the prelude at
// kernel.UserTextBase. Its line numbers continue after the prelude's,
// so the image and every diagnostic are those of the concatenated
// source.
func Assemble(src string) (*asm.Program, error) {
	return asm.AssembleTexts(kernel.UserTextBase, Parsed(), asm.Parse(src))
}

var prelude = fmt.Sprintf(`
	.equ SYS_exit,        %d
	.equ SYS_write,       %d
	.equ SYS_getpid,      %d
	.equ SYS_sbrk,        %d
	.equ SYS_sigaction,   %d
	.equ SYS_sigreturn,   %d
	.equ SYS_mprotect,    %d
	.equ SYS_cycles,      %d
	.equ SYS_uexc_enable, %d
	.equ SYS_uexc_eager,  %d
	.equ SYS_subpage,     %d
	.equ SYS_setubit,     %d
	.equ SYS_uexc_watch,  %d
	.equ SYS_yield,       %d
	.equ SYS_getasid,     %d
	.equ FRAMEPAGE,       %#x
`, kernel.SysExit, kernel.SysWrite, kernel.SysGetpid, kernel.SysSbrk,
	kernel.SysSigaction, kernel.SysSigreturn, kernel.SysMprotect,
	kernel.SysCycles, kernel.SysUexcEnable, kernel.SysUexcEager,
	kernel.SysSubpageProt, kernel.SysSetUBit, kernel.SysUexcWatch,
	kernel.SysYield, kernel.SysGetAsid,
	kernel.UserFrameVA) + preludeAsm

const preludeAsm = `
# ----------------------------------------------------------------------
# Process startup.
# ----------------------------------------------------------------------
_start:
	jal   main
	nop
	move  a0, v0
	li    v0, SYS_exit
	syscall
	nop
hang:	b hang
	nop

# ----------------------------------------------------------------------
# Unix signal trampoline (§3.1). sendsig enters here with a0 = signal,
# a1 = code, a2 = scp, a3 = handler, sp = scp. After the handler
# returns, sigreturn restores the (possibly modified) sigcontext.
# ----------------------------------------------------------------------
__sig_trampoline:
	addiu sp, sp, -24
	jalr  a3
	nop
__sig_handler_ret:
	addiu sp, sp, 24
	move  a0, sp
	li    v0, SYS_sigreturn
	syscall
	nop

# ----------------------------------------------------------------------
# General low-level fast exception handler (§3.2.1). The kernel enters
# here with t0 = frame VA, t1 = exception code, and at/v0/v1/a0-a3/
# t0-t5/ra saved in the frame. Saves the remaining user state — the
# same state Ultrix would save — calls the registered C handler, then
# restores everything and jumps to the (possibly adjusted) resume PC
# without re-entering the kernel.
# ----------------------------------------------------------------------
__fexc_low:
	addiu sp, sp, -96
	sw    s0, 0(sp)
	sw    s1, 4(sp)
	sw    s2, 8(sp)
	sw    s3, 12(sp)
	sw    s4, 16(sp)
	sw    s5, 20(sp)
	sw    s6, 24(sp)
	sw    s7, 28(sp)
	sw    t6, 32(sp)
	sw    t7, 36(sp)
	sw    t8, 40(sp)
	sw    t9, 44(sp)
	sw    gp, 48(sp)
	sw    fp, 52(sp)
	mfhi  t3
	sw    t3, 56(sp)
	mflo  t3
	sw    t3, 60(sp)
	sw    t0, 64(sp)
	move  a0, t0
	la    t3, __fexc_chandler
	lw    t3, 0(t3)
	jalr  t3
	nop
__fexc_low_ret:
	lw    t0, 64(sp)
	lw    t3, 60(sp)
	mtlo  t3
	lw    t3, 56(sp)
	mthi  t3
	lw    fp, 52(sp)
	lw    gp, 48(sp)
	lw    t9, 44(sp)
	lw    t8, 40(sp)
	lw    t7, 36(sp)
	lw    t6, 32(sp)
	lw    s7, 28(sp)
	lw    s6, 24(sp)
	lw    s5, 20(sp)
	lw    s4, 16(sp)
	lw    s3, 12(sp)
	lw    s2, 8(sp)
	lw    s1, 4(sp)
	lw    s0, 0(sp)
	addiu sp, sp, 96
__fexc_resume:
	lw    k0, 0x00(t0)        # FrEPC: resume address
	lw    at, 0x0c(t0)
	lw    v0, 0x10(t0)
	lw    v1, 0x14(t0)
	lw    a0, 0x18(t0)
	lw    a1, 0x1c(t0)
	lw    a2, 0x20(t0)
	lw    a3, 0x24(t0)
	lw    t1, 0x2c(t0)
	lw    t2, 0x30(t0)
	lw    t3, 0x34(t0)
	lw    t4, 0x3c(t0)
	lw    t5, 0x40(t0)
	lw    ra, 0x44(t0)
	lw    t0, 0x28(t0)        # t0 last: it held the frame pointer
__fexc_jump:
	mtxt  k0                  # xret jumps through XT and clears the
	xret                      # UEX recursion guard; same 2-cycle cost
	                          # as the jr/nop pair it replaces

# ----------------------------------------------------------------------
# Specialized minimal fast handler (§4.2.2): saves nothing beyond the
# kernel frame — callee-saved registers are the C handler's problem,
# caller-saved t6-t9 are known unused by the specialized handler.
# ----------------------------------------------------------------------
__fexc_min:
	move  a0, t0
	la    t3, __fexc_chandler
	lw    t3, 0(t3)
	jalr  t3
	nop
__fexc_min_ret:
	lw    k0, 0x00(t0)
	lw    at, 0x0c(t0)
	lw    v0, 0x10(t0)
	lw    v1, 0x14(t0)
	lw    a0, 0x18(t0)
	lw    a1, 0x1c(t0)
	lw    a2, 0x20(t0)
	lw    a3, 0x24(t0)
	lw    t1, 0x2c(t0)
	lw    t2, 0x30(t0)
	lw    t3, 0x34(t0)
	lw    ra, 0x44(t0)
	lw    t0, 0x28(t0)
__fexc_min_jump:
	mtxt  k0                  # clears UEX on return, like __fexc_jump
	xret

# ----------------------------------------------------------------------
# Vectored low-level handler (the §2.2 vector-table design point): like
# __fexc_low, but the C-level handler is selected from a per-exception
# table indexed by the code the kernel leaves in t1. The dispatch costs
# two extra instructions over the single-handler path — measuring the
# paper's judgment that a hardware vector table buys "little likely
# performance gain".
# ----------------------------------------------------------------------
__fexc_vec:
	addiu sp, sp, -96
	sw    s0, 0(sp)
	sw    s1, 4(sp)
	sw    s2, 8(sp)
	sw    s3, 12(sp)
	sw    s4, 16(sp)
	sw    s5, 20(sp)
	sw    s6, 24(sp)
	sw    s7, 28(sp)
	sw    t6, 32(sp)
	sw    t7, 36(sp)
	sw    t8, 40(sp)
	sw    t9, 44(sp)
	sw    gp, 48(sp)
	sw    fp, 52(sp)
	mfhi  t3
	sw    t3, 56(sp)
	mflo  t3
	sw    t3, 60(sp)
	sw    t0, 64(sp)
	move  a0, t0
	la    t3, __fexc_vtable
	sll   t5, t1, 2            # code * 4
	addu  t3, t3, t5
	lw    t3, 0(t3)            # per-exception C handler
	jalr  t3
	nop
__fexc_vec_ret:
	lw    t0, 64(sp)
	lw    t3, 60(sp)
	mtlo  t3
	lw    t3, 56(sp)
	mthi  t3
	lw    fp, 52(sp)
	lw    gp, 48(sp)
	lw    t9, 44(sp)
	lw    t8, 40(sp)
	lw    t7, 36(sp)
	lw    t6, 32(sp)
	lw    s7, 28(sp)
	lw    s6, 24(sp)
	lw    s5, 20(sp)
	lw    s4, 16(sp)
	lw    s3, 12(sp)
	lw    s2, 8(sp)
	lw    s1, 4(sp)
	lw    s0, 0(sp)
	addiu sp, sp, 96
	b     __fexc_resume
	nop

# Registered C-level fast handler (a code pointer in user data).
	.align 4
__fexc_chandler:
	.word 0

# Per-exception handler table for __fexc_vec (32 slots, one per
# arch.Exc* code).
__fexc_vtable:
	.space 128

# ----------------------------------------------------------------------
# Null C handlers for microbenchmarks.
# ----------------------------------------------------------------------

# Plain null handler: measures pure delivery cost.
__null_handler:
	jr    ra
	nop

# Null handler that advances the resume PC past the faulting
# instruction (for re-executable faults like breakpoints). Uses t6,
# which neither low-level wrapper needs preserved across the call.
__skip_handler:
	lw    t6, 0(a0)
	nop
	addiu t6, t6, 4
	sw    t6, 0(a0)
	jr    ra
	nop

# Null Unix signal handler.
__null_sig_handler:
	jr    ra
	nop

# Unix signal handler that advances sigcontext's saved EPC by 4.
# a2 = scp on entry to the *trampoline*; the handler receives
# (sig, code, scp) per Ultrix convention, so scp is a2.
__skip_sig_handler:
	lw    t4, 124(a2)         # TfEPC offset within the sigcontext
	nop
	addiu t4, t4, 4
	sw    t4, 124(a2)
	jr    ra
	nop

# ----------------------------------------------------------------------
# Helpers.
# ----------------------------------------------------------------------

# __cycles: v0 = current cycle count (simulator aid).
__cycles:
	li    v0, SYS_cycles
	syscall
	nop
	jr    ra
	nop

# __uexc_enable(a0=handler, a1=mask): enables fast exceptions with the
# standard frame page.
__uexc_enable:
	li    a2, FRAMEPAGE
	li    v0, SYS_uexc_enable
	syscall
	nop
	jr    ra
	nop
`

// TeraHandler is the user-level handler for the proposed Tera-style
// hardware, which vectors exceptions straight to user mode through the
// exception-target register XT. A program that runs in that mode
// appends this text to its own and loads XT with tera_handler. The
// handler saves the same register set the kernel fast path's save
// phase stores (the exception frame), calls the C-level handler
// registered at __fexc_chandler with a0 = the frame, restores, and
// return-exchanges to the (possibly advanced) faulting PC. Measured
// against the software fast path, it isolates what hardware vectoring
// removes: the kernel decode / compatibility / fp / tlb phases, the
// mode switches, and the duplicated saves the software low-level
// handler adds for fairness (the paper estimates 2-3x, §3). It is not
// part of Prelude, so it leaves every other program's image unchanged.
const TeraHandler = `

# Return-exchange immediately before the handler entry: executing the
# xret reloads XT with the handler address for the next exception.
tera_ret:
	xret
tera_handler:
	la    k1, tera_frame
	mfxt  k0                  # faulting PC
	sw    k0, 0x00(k1)
	mfxc  k0                  # condition register: the cause
	sw    k0, 0x04(k1)
	sw    zero, 0x08(k1)
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
	sw    t4, 0x3c(k1)
	sw    t5, 0x40(k1)
	sw    ra, 0x44(k1)
	move  t0, k1
	move  a0, t0
	la    t3, __fexc_chandler
	lw    t3, 0(t3)
	jalr  t3
	nop
tera_handler_ret:
	lw    k0, 0x00(t0)        # resume PC (C handler may have advanced)
	mtxt  k0
	lw    at, 0x0c(t0)
	lw    v0, 0x10(t0)
	lw    v1, 0x14(t0)
	lw    a0, 0x18(t0)
	lw    a1, 0x1c(t0)
	lw    a2, 0x20(t0)
	lw    a3, 0x24(t0)
	lw    t1, 0x2c(t0)
	lw    t2, 0x30(t0)
	lw    t3, 0x34(t0)
	lw    t4, 0x3c(t0)
	lw    t5, 0x40(t0)
	lw    ra, 0x44(t0)
	lw    t0, 0x28(t0)
	b     tera_ret
	nop
	.align 8
tera_frame:
	.space 128
`

// Symbols that programs and the measurement harness rely on.
const (
	SymStart          = "_start"
	SymMain           = "main"
	SymTrampoline     = "__sig_trampoline"
	SymSigHandlerRet  = "__sig_handler_ret"
	SymFexcLow        = "__fexc_low"
	SymFexcLowRet     = "__fexc_low_ret"
	SymFexcResume     = "__fexc_resume"
	SymFexcMin        = "__fexc_min"
	SymFexcMinRet     = "__fexc_min_ret"
	SymFexcVec        = "__fexc_vec"
	SymFexcVecRet     = "__fexc_vec_ret"
	SymFexcVtable     = "__fexc_vtable"
	SymFexcCHandler   = "__fexc_chandler"
	SymNullHandler    = "__null_handler"
	SymSkipHandler    = "__skip_handler"
	SymNullSigHandler = "__null_sig_handler"
	SymSkipSigHandler = "__skip_sig_handler"
)
