package core

import (
	"fmt"

	"uexc/internal/userrt"
)

// Microbenchmark user programs (assembled against the userrt prelude).
// Each defines main, a bench_fault label at the faulting instruction,
// and a bench_resume label where control lands after the exception is
// fully processed; the measurement harness watches those addresses.

const progTail = `
	lw    ra, 0(sp)
	addiu sp, sp, 8
	li    v0, 0
	jr    ra
	nop
`

// simpleFastProg: breakpoint exceptions via the fast path, general
// low-level handler, skip-C-handler (Table 2 rows 1, 4, 5).
func simpleFastProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, __skip_handler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, 1 << 9          # breakpoint
	jal   __uexc_enable
	nop
	break                     # warmup: touch handler paths, TLB
	li    s0, %d
loop:
bench_fault:
	break
bench_resume:
	addiu s0, s0, -1
	bnez  s0, loop
	nop
`+progTail, n)
}

// simpleUltrixProg: the same breakpoint loop via SIGTRAP.
func simpleUltrixProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	li    a0, 5               # SIGTRAP
	la    a1, __skip_sig_handler
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
	break                     # warmup
	li    s0, %d
loop:
bench_fault:
	break
bench_resume:
	addiu s0, s0, -1
	bnez  s0, loop
	nop
`+progTail, n)
}

// simpleTeraProg: breakpoints delivered directly to user mode by the
// proposed hardware, through the runtime's Tera-mode handler
// (userrt.TeraHandler).
func simpleTeraProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, __skip_handler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    t0, tera_handler
	mtxt  t0
	break                     # warmup
	li    s0, %d
loop:
bench_fault:
	break
bench_resume:
	addiu s0, s0, -1
	bnez  s0, loop
	nop
`+progTail, n) + userrt.TeraHandler
}

// writeProtFastProg: write-protection faults via the fast path with
// optional eager amplification (Table 2 row 2).
func writeProtFastProg(n int, eager bool) string {
	eagerVal := 0
	if eager {
		eagerVal = 1
	}
	// Without eager amplification the handler itself must unprotect the
	// page (a syscall from the handler) before resuming, or the store
	// faults forever; with it, the kernel already amplified.
	handler := "__null_handler"
	if !eager {
		handler = "wp_chandler"
	}
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, %s
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, (1<<1)|(1<<2)|(1<<3)   # Mod|TLBL|TLBS
	jal   __uexc_enable
	nop
	li    a0, %d
	li    v0, SYS_uexc_eager
	syscall
	nop
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0
	la    t0, page_addr
	sw    s1, 0(t0)
	sw    zero, 0(s1)          # touch: demand-map the page
	move  a0, s1               # write-protect it
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	li    s0, %d
loop:
bench_fault:
	sw    s0, 0(s1)            # Mod fault -> deliver -> retry succeeds
bench_resume:
	move  a0, s1               # re-protect for the next iteration
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	addiu s0, s0, -1
	bnez  s0, loop
	nop
`+progTail+`

# Non-eager C handler: unprotect the page, then return (resume retries).
wp_chandler:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    a0, page_addr
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
page_addr:
	.word 0
`, handler, eagerVal, n)
}

// writeProtUltrixProg: write-protection faults via SIGSEGV; the signal
// handler unprotects the page so the retry succeeds, the loop
// re-protects.
func writeProtUltrixProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	li    a0, 11               # SIGSEGV
	la    a1, wp_sig_handler
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0
	la    t0, page_addr
	sw    s1, 0(t0)
	sw    zero, 0(s1)
	move  a0, s1
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	li    s0, %d
loop:
bench_fault:
	sw    s0, 0(s1)
bench_resume:
	move  a0, s1
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	addiu s0, s0, -1
	bnez  s0, loop
	nop
`+progTail+`

wp_sig_handler:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    a0, page_addr
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
page_addr:
	.word 0
`, n)
}

// subpageProg: 1 KB logical-page protection (Table 2 row 3 and the
// §3.2.4 emulation path). Phase A stores to the protected subpage
// (delivery measured); phase B stores to an unprotected subpage of the
// same hardware page (kernel emulation measured).
func subpageProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, __null_handler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, (1<<1)|(1<<2)|(1<<3)
	jal   __uexc_enable
	nop
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0
	sw    zero, 0(s1)          # touch
	move  a0, s1               # protect logical page [s1, s1+1K)
	li    a1, 1024
	li    a2, 0
	li    v0, SYS_subpage
	syscall
	nop
	li    s0, %d
loopa:
bench_fault:
	sw    s0, 0(s1)            # protected subpage: delivered
bench_resume:
	move  a0, s1               # re-protect (page was amplified)
	li    a1, 1024
	li    a2, 0
	li    v0, SYS_subpage
	syscall
	nop
	addiu s0, s0, -1
	bnez  s0, loopa
	nop

	li    s0, %d
loopb:
bench_fault2:
	sw    s0, 2048(s1)         # unprotected subpage: kernel emulates
bench_resume2:
	addiu s0, s0, -1
	bnez  s0, loopb
	nop
	lw    t2, 2048(s1)         # verify the emulated store landed
	la    t3, emul_check
	sw    t2, 0(t3)
`+progTail+`
	.align 4
emul_check:
	.word 0
`, n, n)
}

// unalignedMinProg: unaligned loads with the specialized minimal
// handler (the §4.2.2 pointer-swizzling configuration, 6 µs).
func unalignedMinProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, __skip_handler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_min
	li    a1, (1<<4)|(1<<5)    # AdEL|AdES
	jal   __uexc_enable
	nop
	la    s1, word_area
	lw    t7, 1(s1)            # warmup unaligned fault
	li    s0, %d
loop:
bench_fault:
	lw    t7, 1(s1)            # odd address: AdEL, skipped by handler
bench_resume:
	addiu s0, s0, -1
	bnez  s0, loop
	nop
`+progTail+`
	.align 8
word_area:
	.word 0x01020304, 0x05060708
`, n)
}

// nullSyscallProg: the getpid comparison point (12 µs on Ultrix).
func nullSyscallProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	li    v0, SYS_getpid
	syscall
	nop
	li    s0, %d
loop:
bench_fault:
	li    v0, SYS_getpid
	syscall
	nop
bench_resume:
	addiu s0, s0, -1
	bnez  s0, loop
	nop
`+progTail, n)
}
