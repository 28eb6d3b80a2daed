package core

import (
	"fmt"

	"uexc/internal/userrt"
)

// SetHardwareUTLBMod selects whether the machine implements the
// user-level TLB protection-update instruction in hardware; without it,
// UTLBMOD traps and the kernel emulates the opcode (§3.2.3's software
// variant).
func (m *Machine) SetHardwareUTLBMod(on bool) { m.K.CPU.HWUTLBMod = on }

// ProtMech names a mechanism for changing page protection from user
// level (ablation D).
type ProtMech int

const (
	ProtMechHardware ProtMech = iota // UTLBMOD in hardware (U bit)
	ProtMechEmulated                 // UTLBMOD emulated by the kernel on RI
	ProtMechSyscall                  // conventional mprotect
)

// String names the mechanism.
func (p ProtMech) String() string {
	switch p {
	case ProtMechHardware:
		return "utlbmod (hardware U bit)"
	case ProtMechEmulated:
		return "utlbmod (kernel-emulated opcode)"
	case ProtMechSyscall:
		return "mprotect system call"
	}
	return "unknown"
}

// protChangeProg toggles a page's protection 2n times via UTLBMOD.
func protChangeUTLBProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0
	sw    zero, 0(s1)          # touch: allocate + TLB entry
	move  a0, s1               # grant the U bit
	li    a1, 1
	li    v0, SYS_setubit
	syscall
	nop
	lw    t1, 0(s1)            # re-establish the TLB entry (setubit flushed it)
	li    s0, %d
loop:
bench_fault:
	li    t1, 2                # read-only
	utlbmod s1, t1
	li    t1, 3                # read-write
	utlbmod s1, t1
bench_resume:
	addiu s0, s0, -1
	bnez  s0, loop
	nop
`+progTail, n)
}

// protChangeSyscallProg toggles a page's protection 2n times via
// mprotect.
func protChangeSyscallProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0
	sw    zero, 0(s1)
	li    s0, %d
loop:
bench_fault:
	move  a0, s1
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	move  a0, s1
	li    a1, 4096
	li    a2, 3
	li    v0, SYS_mprotect
	syscall
	nop
bench_resume:
	addiu s0, s0, -1
	bnez  s0, loop
	nop
`+progTail, n)
}

// MeasureProtChange returns the mean cost in cycles of one user-level
// page-protection change under the given mechanism (ablation D: the
// three ways §2.2/§3.2.3 discuss).
func MeasureProtChange(mech ProtMech, n int) (float64, error) {
	prog := protChangeUTLBProg(n)
	var setup func(*Machine)
	switch mech {
	case ProtMechEmulated:
		setup = func(m *Machine) { m.SetHardwareUTLBMod(false) }
	case ProtMechSyscall:
		prog = protChangeSyscallProg(n)
	}
	m, tl, err := probe(prog, []string{"bench_fault", "bench_resume"}, setup)
	if err != nil {
		return 0, err
	}
	cost, got := span(tl, "bench_fault", "bench_resume")
	if got == 0 {
		return 0, fmt.Errorf("core: protection-change benchmark recorded nothing")
	}
	if mech == ProtMechEmulated && m.K.Stats.UTLBEmuls == 0 {
		return 0, fmt.Errorf("core: emulated mechanism took no emulations")
	}
	return cost / 2, nil // two changes per iteration
}

// vectoredProg is the simple-exception benchmark with the vectored
// low-level handler (per-exception dispatch table) instead of the
// single-handler path.
func vectoredProg(n int) string {
	return fmt.Sprintf(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, __skip_handler
	la    t1, __fexc_vtable
	sw    t0, 9*4(t1)          # vtable[Bp]
	la    a0, __fexc_vec
	li    a1, 1 << 9
	jal   __uexc_enable
	nop
	break
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

// MeasureVectoredDispatch measures the simple-exception round trip with
// the vector-table low-level handler (the §2.2 design point).
func MeasureVectoredDispatch(n int) (Timing, error) {
	return measure(timedLoopSpec{
		prog:         vectoredProg(n),
		handlerEntry: userrt.SymSkipHandler,
		handlerExit:  userrt.SymFexcVecRet,
		codeMask:     ExcMaskBp,
	})
}
