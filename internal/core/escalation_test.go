package core

import (
	"errors"
	"testing"

	"uexc/internal/arch"
	"uexc/internal/kernel"
)

// Recursive-exception escalation (§2): a fault raised while a
// user-level handler is in progress must not stack a second frame on
// the first. The kernel demotes the faulting class to Ultrix delivery,
// and an unrecoverable repeat kills the process with a recorded
// *MachineError cause chain. These tests drive the real paths — no
// fault injection — in both delivery modes.

// recursionProg builds the two-page recursion scenario: claim
// protection faults through the mode-specific snippet, register a Unix
// SIGSEGV handler, allocate two heap pages and write-protect both. The
// first store (page A) enters the user handler; the handler stores to
// page B, faulting recursively while UEX is set.
func recursionProg(claim, extra string) string {
	return `
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
` + claim + `
	li    a0, 11               # SIGSEGV fallback for the escalated fault
	la    a1, fix_handler
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0               # page A
	addiu s2, s1, 4096         # page B
	la    t0, page_a
	sw    s1, 0(t0)
	la    t0, page_b
	sw    s2, 0(t0)
	sw    zero, 0(s1)          # demand-map both pages
	sw    zero, 0(s2)
	move  a0, s1
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect     # page A read-only
	syscall
	nop
	move  a0, s2
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect     # page B read-only
	syscall
	nop
	li    t0, 1
	sw    t0, 0(s1)            # Mod -> user handler -> recursive Mod
	move  a0, s1
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect     # re-protect page A
	syscall
	nop
	li    t0, 2
	sw    t0, 0(s1)            # Mod again: the class is demoted now,
	                           # so this must take the Unix path
	lw    ra, 0(sp)
	addiu sp, sp, 8
	li    v0, 0
	jr    ra
	nop

# The claimed-path handler: counts, then stores to the other protected
# page — a genuine recursive protection fault with UEX set.
rec_chandler:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t6, chandler_count
	lw    t7, 0(t6)
	addiu t7, t7, 1
	sw    t7, 0(t6)
	la    t6, page_b
	lw    t6, 0(t6)
	li    t7, 7
	sw    t7, 0(t6)            # recursive fault (page B read-only)
	lw    ra, 0(sp)
	addiu sp, sp, 8
	jr    ra
	nop

# The Unix fallback: unprotect both pages so every re-executed store
# succeeds, count invocations.
fix_handler:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t6, fix_count
	lw    t7, 0(t6)
	addiu t7, t7, 1
	sw    t7, 0(t6)
	la    a0, page_a
	lw    a0, 0(a0)
	li    a1, 4096
	li    a2, 3
	li    v0, SYS_mprotect
	syscall
	nop
	la    a0, page_b
	lw    a0, 0(a0)
	li    a1, 4096
	li    a2, 3
	li    v0, SYS_mprotect
	syscall
	nop
	lw    ra, 0(sp)
	addiu sp, sp, 8
	jr    ra
	nop
	.align 4
page_a:
	.word 0
page_b:
	.word 0
chandler_count:
	.word 0
fix_count:
	.word 0
` + extra
}

// TestFastRecursionDemotesToUltrix: software fast path. The recursive
// Mod inside the handler must demote the class, route the fault through
// the Unix machinery, and let the process finish; the later store shows
// the demotion stuck (second fault arrives via signal, not fast path).
func TestFastRecursionDemotesToUltrix(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	claim := `
	la    t0, rec_chandler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, (1<<1)|(1<<2)|(1<<3)
	jal   __uexc_enable
	nop
`
	if err := m.LoadProgram(recursionProg(claim, "")); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(5_000_000); err != nil {
		t.Fatalf("process must survive the escalation: %v", err)
	}
	if got := m.K.Stats.UEXRecursions; got != 1 {
		t.Errorf("UEXRecursions = %d, want 1", got)
	}
	if got := m.K.Stats.FastFallbacks; got != 1 {
		t.Errorf("FastFallbacks = %d, want 1 (Mod demoted)", got)
	}
	if got := m.userWord("chandler_count"); got != 1 {
		t.Errorf("chandler_count = %d, want 1", got)
	}
	// Once for the escalated recursive fault, once for the post-demotion
	// store: both through the Unix machinery.
	if got := m.userWord("fix_count"); got != 2 {
		t.Errorf("fix_count = %d, want 2", got)
	}
	if got := m.K.Stats.UnixDeliveries; got != 2 {
		t.Errorf("UnixDeliveries = %d, want 2", got)
	}
}

// TestHardwareRecursionDemotesAndClearsVector: Tera-style direct
// vectoring. The CPU must suppress direct delivery when UEX is set,
// report through OnUEXRecursion (demoting the class out of the
// hardware user vector), and force the kernel path; the process
// survives via the Unix fallback.
func TestHardwareRecursionDemotesAndClearsVector(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	claim := `
	la    t0, rec_chandler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    t0, tera_handler
	mtxt  t0
`
	teraShim := `
tera_ret:
	xret
tera_handler:
	la    k1, tera_frame
	mfxt  k0
	sw    k0, 0x00(k1)
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
	lw    k0, 0x00(t0)
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
	if err := m.LoadProgram(recursionProg(claim, teraShim)); err != nil {
		t.Fatal(err)
	}
	m.EnableHardwareDelivery(1 << arch.ExcMod)
	if err := m.Run(5_000_000); err != nil {
		t.Fatalf("process must survive the escalation: %v", err)
	}
	if got := m.K.Stats.UEXRecursions; got != 1 {
		t.Errorf("UEXRecursions = %d, want 1", got)
	}
	if got := m.K.Stats.FastFallbacks; got != 1 {
		t.Errorf("FastFallbacks = %d, want 1", got)
	}
	if v := m.CPU().UserVector; v&(1<<arch.ExcMod) != 0 {
		t.Errorf("UserVector = %#x: Mod claim bit must be cleared by demotion", v)
	}
	if got := m.userWord("chandler_count"); got != 1 {
		t.Errorf("chandler_count = %d, want 1", got)
	}
	if got := m.userWord("fix_count"); got != 2 {
		t.Errorf("fix_count = %d, want 2", got)
	}
}

// recursionKillProg keeps re-claiming the demoted class from inside
// the Unix fallback without ever fixing the protection, so the same
// recursive fault repeats until the escalation ladder gives up.
const recursionKillProg = `
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, rec_chandler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, (1<<1)|(1<<2)|(1<<3)
	jal   __uexc_enable
	nop
	li    a0, 11
	la    a1, reclaim_handler
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0
	addiu s2, s1, 4096
	la    t0, page_b
	sw    s2, 0(t0)
	sw    zero, 0(s1)
	sw    zero, 0(s2)
	move  a0, s1
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	move  a0, s2
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	li    t0, 1
	sw    t0, 0(s1)            # never completes: the process dies here
	li    v0, 0
	jr    ra
	nop

rec_chandler:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t6, page_b
	lw    t6, 0(t6)
	li    t7, 7
	sw    t7, 0(t6)            # recursive fault, never fixed
	lw    ra, 0(sp)
	addiu sp, sp, 8
	jr    ra
	nop

# The Unix fallback undoes the demotion and returns without fixing
# anything: the fault re-enters the fast path and recurses again.
reclaim_handler:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    a0, __fexc_low
	li    a1, (1<<1)|(1<<2)|(1<<3)
	jal   __uexc_enable
	nop
	lw    ra, 0(sp)
	addiu sp, sp, 8
	jr    ra
	nop
	.align 4
page_b:
	.word 0
`

// TestRecursionDepthKill: a process that keeps recurring after
// demotions is unrecoverable; the kernel must kill it with a typed
// *MachineError cause chain ending in ErrRecursion — never a Go panic,
// never an exhausted budget.
func TestRecursionDepthKill(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(recursionKillProg); err != nil {
		t.Fatal(err)
	}
	err = m.Run(5_000_000)
	if err == nil {
		t.Fatal("runaway recursion survived")
	}
	if !errors.Is(err, kernel.ErrRecursion) {
		t.Errorf("err = %v, want ErrRecursion in the chain", err)
	}
	var me *kernel.MachineError
	if !errors.As(err, &me) {
		t.Errorf("err = %v, want a *MachineError cause chain", err)
	}
	if got := m.K.Stats.RecursionKills; got != 1 {
		t.Errorf("RecursionKills = %d, want 1", got)
	}
	if got := m.K.Stats.UEXRecursions; got < 4 {
		t.Errorf("UEXRecursions = %d, want >= 4 (the kill depth)", got)
	}
	done, status := m.K.Procs()[0].Exited()
	if !done || status != 128+11 {
		t.Errorf("exit = %v/%d, want SIGSEGV termination 139", done, status)
	}
}

// siblingSurvivorProg holds values in every callee-saved register
// across eight yields, then prints "ok" if they are intact.
const siblingSurvivorProg = `
main:
	addiu sp, sp, -12
	sw    ra, 0(sp)
	li    s0, 0x1111
	li    s1, 0x2222
	li    s2, 0x3333
	li    s3, 0x4444
	li    s4, 0x5555
	li    s5, 0x6666
	li    s6, 0x7777
	li    s7, 0x0888
	li    t0, 8
yield_loop:
	sw    t0, 4(sp)
	li    v0, SYS_yield
	syscall
	nop
	lw    t0, 4(sp)
	addiu t0, t0, -1
	bnez  t0, yield_loop
	nop
	li    t1, 0x1111
	bne   s0, t1, bad
	nop
	li    t1, 0x2222
	bne   s1, t1, bad
	nop
	li    t1, 0x3333
	bne   s2, t1, bad
	nop
	li    t1, 0x4444
	bne   s3, t1, bad
	nop
	li    t1, 0x5555
	bne   s4, t1, bad
	nop
	li    t1, 0x6666
	bne   s5, t1, bad
	nop
	li    t1, 0x7777
	bne   s6, t1, bad
	nop
	li    t1, 0x0888
	bne   s7, t1, bad
	nop
	li    a0, 1
	la    a1, okmsg
	li    a2, 3
	li    v0, SYS_write
	syscall
	nop
	b     out
	nop
bad:
	li    a0, 1
	la    a1, badmsg
	li    a2, 4
	li    v0, SYS_write
	syscall
	nop
out:
	lw    ra, 0(sp)
	addiu sp, sp, 12
	li    v0, 0
	jr    ra
	nop
okmsg:	.asciiz "ok\n"
badmsg:	.asciiz "BAD\n"
`

// TestRecursionKillIsolatesSibling: the escalation kill must be
// process-local. A sibling holding values in every callee-saved
// register across the victim's entire death spiral must observe them
// intact and run to completion.
func TestRecursionKillIsolatesSibling(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(siblingSurvivorProg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SpawnProgram(recursionKillProg); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("survivor must finish cleanly: %v", err)
	}
	if got := m.K.Console(); got != "ok\n" {
		t.Errorf("console = %q, want \"ok\\n\" (callee-saved state intact)", got)
	}
	procs := m.K.Procs()
	done, status := procs[1].Exited()
	if !done || status != 128+11 {
		t.Errorf("victim exit = %v/%d, want true/139", done, status)
	}
	if !errors.Is(procs[1].KillReason(), kernel.ErrRecursion) {
		t.Errorf("victim kill reason = %v, want ErrRecursion", procs[1].KillReason())
	}
	if got := m.K.Stats.RecursionKills; got != 1 {
		t.Errorf("RecursionKills = %d, want 1", got)
	}
}
