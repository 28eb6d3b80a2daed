package core

import (
	"testing"

	"uexc/internal/arch"
)

// TestProtChangeMechanisms is ablation D: the three ways user code can
// change page protection, per §2.2 (hardware U bit) and §3.2.3
// (kernel-emulated opcode, conventional mprotect).
func TestProtChangeMechanisms(t *testing.T) {
	hw, err := MeasureProtChange(ProtMechHardware, 40)
	if err != nil {
		t.Fatal(err)
	}
	emul, err := MeasureProtChange(ProtMechEmulated, 40)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := MeasureProtChange(ProtMechSyscall, 40)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("protection change: hardware %.2fµs, emulated opcode %.2fµs, mprotect %.2fµs",
		Micros(uint64(hw)), Micros(uint64(emul)), Micros(uint64(sys)))

	// Hardware must be dramatically cheaper than either software path.
	if hw*10 > emul || hw*10 > sys {
		t.Errorf("hardware utlbmod (%.0f cyc) should be >10x cheaper than software (%.0f/%.0f)",
			hw, emul, sys)
	}
	// The paper's caveat on the software approach: "may not provide
	// acceptable performance" — the trapped emulation must not beat the
	// plain syscall by much (it takes a full exception plus the same
	// page-table work).
	if emul < sys/2 {
		t.Errorf("emulated opcode (%.0f cyc) implausibly beats mprotect (%.0f cyc)", emul, sys)
	}
	// Sanity: a hardware protection toggle is a handful of cycles.
	if hw > 25 {
		t.Errorf("hardware toggle = %.0f cycles, want a few", hw)
	}
}

// TestEmulatedUTLBModHonorsUBit: without the U bit, the emulated opcode
// must be refused (SIGILL termination), same as hardware.
func TestEmulatedUTLBModHonorsUBit(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	err = m.LoadProgram(`
main:
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0
	sw    zero, 0(s1)
	li    t1, 2
	utlbmod s1, t1       # no U bit granted: refused
	li    v0, 0
	jr    ra
	nop
`)
	if err != nil {
		t.Fatal(err)
	}
	m.SetHardwareUTLBMod(false)
	if err := m.Run(5_000_000); err == nil {
		t.Fatal("utlbmod without U bit succeeded")
	}
	if m.K.Stats.UTLBEmuls != 0 {
		t.Errorf("emulations = %d, want 0", m.K.Stats.UTLBEmuls)
	}
	if m.K.Stats.Terminations != 1 {
		t.Errorf("terminations = %d, want 1 (SIGILL)", m.K.Stats.Terminations)
	}
}

// TestEmulatedUTLBModChangesProtection: the emulated opcode's effect is
// equivalent to the hardware's, and subsequent stores fault.
func TestEmulatedUTLBModChangesProtection(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	err = m.LoadProgram(`
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
	li    a0, 1
	li    v0, SYS_uexc_eager
	syscall
	nop
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s1, v0
	sw    zero, 0(s1)
	move  a0, s1
	li    a1, 1
	li    v0, SYS_setubit
	syscall
	nop
	li    t1, 2
	utlbmod s1, t1       # emulated: write-protect the page
	li    t8, 0x42
	sw    t8, 0(s1)      # Mod fault -> fast delivery -> eager retry
	lw    t9, 0(s1)
	la    t0, result
	sw    t9, 0(t0)
	lw    ra, 0(sp)
	addiu sp, sp, 8
	li    v0, 0
	jr    ra
	nop
	.align 4
result:
	.word 0
`)
	if err != nil {
		t.Fatal(err)
	}
	m.SetHardwareUTLBMod(false)
	if err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.userWord("result"); got != 0x42 {
		t.Errorf("result = %#x, want 0x42", got)
	}
	if m.K.Stats.UTLBEmuls != 1 {
		t.Errorf("emulations = %d, want 1", m.K.Stats.UTLBEmuls)
	}
	if m.K.Stats.ProtFaultsToUser != 1 {
		t.Errorf("deliveries = %d, want 1 (write-protect worked)", m.K.Stats.ProtFaultsToUser)
	}
}

// TestVectoredDispatchRoutesByCode: the §2.2 vector-table variant sends
// each exception code to its own handler.
func TestVectoredDispatchRoutesByCode(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	err = m.LoadProgram(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t1, __fexc_vtable
	la    t0, bp_handler
	sw    t0, 9*4(t1)          # vtable[Bp]
	la    t0, ov_handler
	sw    t0, 12*4(t1)         # vtable[Ov]
	la    a0, __fexc_vec
	li    a1, (1<<9)|(1<<12)   # Bp | Ov
	jal   __uexc_enable
	nop
	break
	li    t8, 0x7fffffff
	li    t9, 1
	add   t8, t8, t9           # overflow
	break
	lw    ra, 0(sp)
	addiu sp, sp, 8
	li    v0, 0
	jr    ra
	nop

bp_handler:
	la    t6, bp_count
	lw    t7, 0(t6)
	nop
	addiu t7, t7, 1
	sw    t7, 0(t6)
	lw    t6, 0(a0)
	nop
	addiu t6, t6, 4
	sw    t6, 0(a0)
	jr    ra
	nop
ov_handler:
	la    t6, ov_count
	lw    t7, 0(t6)
	nop
	addiu t7, t7, 1
	sw    t7, 0(t6)
	lw    t6, 0(a0)
	nop
	addiu t6, t6, 4
	sw    t6, 0(a0)
	jr    ra
	nop
	.align 4
bp_count:
	.word 0
ov_count:
	.word 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.userWord("bp_count"); got != 2 {
		t.Errorf("bp_count = %d, want 2", got)
	}
	if got := m.userWord("ov_count"); got != 1 {
		t.Errorf("ov_count = %d, want 1", got)
	}
}

// TestVectoredDispatchOverhead: the paper judged a hardware vector
// table to add complexity for "little likely performance gain"; the
// user-level table dispatch costs only a couple of instructions over
// the single-handler path.
func TestVectoredDispatchOverhead(t *testing.T) {
	vec, err := MeasureVectoredDispatch(40)
	if err != nil {
		t.Fatal(err)
	}
	single, err := MeasureSimpleException(ModeFast, 40)
	if err != nil {
		t.Fatal(err)
	}
	delta := vec.RoundTrip - single.RoundTrip
	t.Logf("vectored rt %.2fµs vs single rt %.2fµs (delta %.0f cycles)",
		vec.RoundTripMicros(), single.RoundTripMicros(), delta)
	if delta < 0 || delta > 10 {
		t.Errorf("dispatch delta = %.1f cycles, want a couple", delta)
	}
}

// TestNestedFastExceptionOverwritesFrame documents §3.2's stated
// semantics: "a nested exception of the same type will overwrite the
// information saved by the kernel on the first exception of that type".
func TestNestedFastExceptionOverwritesFrame(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	// The first handler invocation itself executes a break; the frame's
	// saved EPC then points at the nested break, not the original one.
	err = m.LoadProgram(`
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, nesting_handler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, 1 << 9
	jal   __uexc_enable
	nop
first:
	break
	lw    ra, 0(sp)
	addiu sp, sp, 8
	li    v0, 0
	jr    ra
	nop

nesting_handler:
	la    t6, depth
	lw    t7, 0(t6)
	nop
	bnez  t7, inner            # second (nested) invocation
	nop
	li    t7, 1
	sw    t7, 0(t6)
	la    t6, epc_first
	lw    t7, 0(a0)
	nop
	sw    t7, 0(t6)            # record EPC before nesting
nested:
	break                      # NESTED exception: overwrites the frame
	la    t6, epc_after
	lw    t7, 0(a0)
	nop
	sw    t7, 0(t6)            # frame EPC now points at the nested break (+4)
	# repair: resume after the original break
	la    t6, epc_first
	lw    t7, 0(t6)
	nop
	addiu t7, t7, 4
	sw    t7, 0(a0)
	jr    ra
	nop
inner:
	lw    t6, 0(a0)            # nested invocation: just skip the break
	nop
	addiu t6, t6, 4
	sw    t6, 0(a0)
	jr    ra
	nop
	.align 4
depth:
	.word 0
epc_first:
	.word 0
epc_after:
	.word 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	first := m.userWord("epc_first")
	after := m.userWord("epc_after")
	nested := m.Sym("nested")
	if first != m.Sym("first") {
		t.Errorf("first EPC = %#x, want %#x", first, m.Sym("first"))
	}
	// The nested exception overwrote the frame: the recorded EPC is the
	// nested break advanced past by the inner handler.
	if after != nested+4 {
		t.Errorf("frame EPC after nesting = %#x, want %#x (overwritten)", after, nested+4)
	}
	if m.CPU().ExcCounts[arch.ExcBp] != 2 {
		t.Errorf("breakpoints = %d, want 2", m.CPU().ExcCounts[arch.ExcBp])
	}
}

// TestEagerStatsAccounting: eager amplification fires only when
// enabled, and the non-eager path takes in-handler mprotect syscalls
// instead.
func TestEagerStatsAccounting(t *testing.T) {
	mEager, _, err := probe(writeProtFastProg(5, true), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mEager.K.Stats.EagerAmplifies < 5 {
		t.Errorf("eager amplifies = %d, want >= 5", mEager.K.Stats.EagerAmplifies)
	}
	mPlain, _, err := probe(writeProtFastProg(5, false), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mPlain.K.Stats.EagerAmplifies != 0 {
		t.Errorf("non-eager run amplified %d times", mPlain.K.Stats.EagerAmplifies)
	}
}
