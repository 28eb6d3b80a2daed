package harness

import (
	"uexc/internal/core"
	"uexc/internal/userrt"
)

// Campaign scenario programs. One hardened workload, parameterized by
// delivery mode: it registers bounded Unix fallback handlers for the
// survivable signals, claims protection faults through the
// mode-specific mechanism, then loops over mprotect/store/compute so
// the injector has TLB traffic, protection faults, and live user
// handlers to attack. Every recovery path is bounded — a handler that
// keeps being re-entered gives up with a distinctive exit status — so
// any injected fault converges to a deterministic outcome instead of
// spinning out the instruction budget.

// campaignCommonSetup registers the bounded signal fallbacks
// (SIGSEGV, SIGBUS, SIGILL all share one handler).
const campaignCommonSetup = `
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	li    a0, 11               # SIGSEGV
	la    a1, sig_fallback
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
	li    a0, 10               # SIGBUS
	la    a1, sig_fallback
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
	li    a0, 4                # SIGILL
	la    a1, sig_fallback
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
`

// campaignWorkload: four demand-mapped heap pages, then a loop that
// write-protects page 0, takes the Mod fault through the configured
// delivery path (the handler unprotects), and mixes in loads/stores on
// the other pages for TLB pressure.
const campaignWorkload = `
	li    a0, 16384
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0
	la    t0, page_addr
	sw    s1, 0(t0)
	sw    zero, 0(s1)          # touch: demand-map all four pages
	sw    zero, 4096(s1)
	sw    zero, 8192(s1)
	sw    zero, 12288(s1)
	li    s0, 6
	li    s2, 0
loop:
	move  a0, s1               # write-protect page 0
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	sw    s0, 0(s1)            # Mod fault -> delivery -> unprotect -> retry
	lw    t0, 0(s1)
	addu  s2, s2, t0
	sw    s2, 4096(s1)
	lw    t1, 8192(s1)
	addu  s2, s2, t1
	sw    s2, 12288(s1)
	addiu s0, s0, -1
	bnez  s0, loop
	nop
	li    a0, 1
	la    a1, done_msg
	li    a2, 5
	li    v0, SYS_write
	syscall
	nop
	lw    ra, 0(sp)
	addiu sp, sp, 8
	li    v0, 0
	jr    ra
	nop
`

// campaignHandlers: the bounded recovery handlers and scenario data.
// wp_chandler is the C-level fast/hardware handler; sig_fallback the
// Unix path. Both unprotect the workload page (idempotent when the
// fault was spurious) and count invocations, exiting with a
// distinctive status if re-entered past any legitimate total.
const campaignHandlers = `
wp_chandler:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, fast_count
	lw    t1, 0(t0)
	addiu t1, t1, 1
	sw    t1, 0(t0)
	sltiu t2, t1, 200
	bnez  t2, wp_go
	nop
	li    a0, 43               # runaway deliveries: give up deterministically
	li    v0, SYS_exit
	syscall
	nop
wp_go:
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

sig_fallback:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, sig_count
	lw    t1, 0(t0)
	addiu t1, t1, 1
	sw    t1, 0(t0)
	sltiu t2, t1, 64
	bnez  t2, sig_go
	nop
	li    a0, 42               # runaway signals: give up deterministically
	li    v0, SYS_exit
	syscall
	nop
sig_go:
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
fast_count:
	.word 0
sig_count:
	.word 0
done_msg:
	.ascii "done\n"
`

// CampaignProgram is the campaign's scenario text for one delivery
// mode (a constant per mode).
func CampaignProgram(mode core.Mode) string {
	switch mode {
	case core.ModeFast:
		return campaignCommonSetup + `
	la    t0, wp_chandler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, (1<<1)|(1<<2)|(1<<3)   # Mod|TLBL|TLBS
	jal   __uexc_enable
	nop
` + campaignWorkload + campaignHandlers
	case core.ModeHardware:
		return campaignCommonSetup + `
	la    t0, wp_chandler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    t0, tera_handler
	mtxt  t0
` + campaignWorkload + campaignHandlers + userrt.TeraHandler
	default: // ModeUltrix: signals only
		return campaignCommonSetup + campaignWorkload + campaignHandlers
	}
}

// livelockProg is a deliberate pure state cycle: no stores, no new
// code after the first pass — only the watchdog can classify it.
func livelockProg() string {
	return `
main:
spin:
	b     spin
	nop
`
}
