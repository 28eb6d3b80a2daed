// Package progen is a seeded, deterministic random program generator
// for the differential-testing oracle (internal/difftest). Each seed
// expands into one exception-rich user program — a randomized sequence
// of fault "episodes" over a fixed data arena — emitted as valid
// internal/asm source in three variants, one per delivery mode
// (core.ModeUltrix / ModeFast / ModeHardware).
//
// The three variants share every byte of workload and handler-policy
// text; only the delivery plumbing differs (signal registration is
// common, the Fast variant claims exceptions with uexc_enable, the
// Hardware variant installs a Tera-style user vector via mtxt and
// direct CPU delivery). The paper's claim that fast delivery
// is semantically equivalent to the Unix signal path — only cheaper —
// therefore becomes checkable: the same workload must produce the same
// architectural outcome under every mode.
//
// Generator grammar (one program = prologue · setup(mode) · zero-regs ·
// episode* · epilogue):
//
//   - break:          a `break` instruction, recovered by skipping.
//   - overflow:       an `add` that overflows, recovered by skipping.
//   - unaligned-load: an lw at addr|2 (AdEL), recovered by skipping;
//     the destination register must keep its pre-fault value.
//   - unaligned-store: an sw at addr|2 (AdES), recovered by skipping;
//     the target word must keep its pre-fault value.
//   - write-prot:     mprotect(page, R) then store (Mod), recovered by
//     un-protecting the faulting page and retrying.
//   - subpage:        subpage_protect 1 KB, store into the protected
//     subpage (Mod), recovered by releasing the subpage protection and
//     the page, then retrying.
//   - delay-slot:     write-protect fault with the store in a branch
//     delay slot (taken and not-taken variants); the retry re-executes
//     the branch, which must be honored exactly once architecturally.
//   - recursion:      write-prot fault whose handler takes a nested
//     breakpoint before recovering — the §2 recursion hazard; under
//     Fast/Hardware this exercises the escalation ladder (demotion to
//     Ultrix delivery), under Ultrix it nests sigcontexts.
//   - compute:        fault-free arithmetic and memory traffic over the
//     arena, so register/memory equivalence has state to bite on.
//
// Every episode's recovery is canonical and idempotent — identical
// assembly in all modes, reached through whichever delivery path the
// mode provides — so each generated program converges to exit 0 with a
// mode-independent architectural state. Episode faults that are skipped
// (break/overflow/unaligned) are never placed in branch delay slots;
// delay-slot episodes use protection faults, whose retry-from-the-
// branch recovery is exact in every mode.
package progen

import (
	"fmt"
	"math/rand"
	"strings"

	"uexc/internal/arch"
	"uexc/internal/core"
)

// Fixed user-space layout of the generated programs. Placing the
// oracle-visible data at fixed .org addresses (inside the text/static
// region, clear of the flowing code) keeps every label and fault
// address identical across the three mode variants even though the
// mode setup stanzas differ in length.
const (
	// DataBase holds the oracle-read bookkeeping: the handler-entry
	// log, counters, and the register dump (one page).
	DataBase = 0x00c00000
	// ArenaBase is the fault arena: ArenaPages pages of zeroed memory
	// the episodes protect, store through, and compute over.
	ArenaBase  = 0x00c10000
	ArenaPages = 4
	// RecPage is the arena page reserved for recursion episodes; the
	// handler policy takes its nested breakpoint only for faults on
	// this page.
	RecPage = ArenaBase + 3*arch.PageSize

	// Data-page offsets (see the .org stanza in Source).
	OffLogLen   = 0x000 // word: number of log entries
	OffLog      = 0x008 // LogCap {cause, badva} word pairs
	OffCount    = 0x700 // word: total policy invocations (bound check)
	OffRecDone  = 0x704 // word: recursion probe fired
	OffChecksum = 0x708 // word: workload accumulator at exit
	OffRegs     = 0x740 // 10 words: s0-s7, hi, lo at exit

	// LogCap bounds the handler-entry log; entries beyond it are
	// counted but not recorded (deterministically, in every mode).
	LogCap = 96

	// maxPolicyEntries bounds total handler entries; a program that
	// exceeds it exits with status 77 instead of spinning.
	maxPolicyEntries = 200
)

// Exception masks per delivery role. The Fast variant claims the
// TLB-type classes (serviced through the kernel fast path, which walks
// page tables per §3.2.2) plus the simple classes (vectored by the
// first-level assembly alone). The Hardware variant delivers every
// intentional class directly — PC/XT exchange, no kernel entry —
// leaving TLB refills and demand paging to the kernel as the Tera
// design does.
const (
	tlbMask    = 1<<arch.ExcMod | 1<<arch.ExcTLBL | 1<<arch.ExcTLBS
	simpleMask = 1<<arch.ExcAdEL | 1<<arch.ExcAdES | 1<<arch.ExcBp | 1<<arch.ExcOv
)

// HWVector is the Tera-style user-vector mask the Hardware variant
// needs enabled on the CPU (core.Machine.EnableHardwareDelivery).
const HWVector = 1<<arch.ExcMod | simpleMask

// Kind enumerates episode kinds for campaign tallies.
type Kind int

const (
	KindBreak Kind = iota
	KindOverflow
	KindUnalignedLoad
	KindUnalignedStore
	KindWriteProt
	KindSubpage
	KindDelaySlot
	KindRecursion
	KindCompute
	NumKinds
)

var kindNames = [NumKinds]string{
	"break", "overflow", "unaligned-load", "unaligned-store",
	"write-prot", "subpage", "delay-slot", "recursion", "compute",
}

func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Program is one generated workload, expandable per delivery mode.
type Program struct {
	Seed     int64
	Episodes []Kind
	Eager    bool // §3.2.3 eager amplification requested via syscall

	// Extra is appended verbatim after the workload episodes (and before
	// the epilogue) in every mode's Source. Generate never sets it, so
	// existing seeds render unchanged; campaign variants (the SMC
	// differential probe) use it to graft mode-independent stanzas onto
	// a generated program.
	Extra string

	// stanzas holds one mode-independent assembly stanza per episode,
	// parallel to Episodes; their concatenation is the workload text.
	// Keeping episodes discrete is what makes programs shrinkable: any
	// subset of stanzas is itself a valid program (stanzas are
	// self-contained — every label an episode references carries its
	// original episode index, so dropping neighbours cannot collide).
	stanzas []string
}

// workload is the concatenated episode text, byte-identical to the
// single-builder emission the stanza split replaced.
func (p *Program) workload() string { return strings.Join(p.stanzas, "") }

// Generate expands a seed into a program. The same seed always yields
// the same program (math/rand with a fixed Source; no global state).
func Generate(seed int64) *Program {
	r := rand.New(rand.NewSource(seed))
	p := &Program{Seed: seed, Eager: r.Intn(2) == 1}

	n := 4 + r.Intn(9) // 4..12 episodes
	recursions := 0
	for i := 0; i < n; i++ {
		k := Kind(r.Intn(int(NumKinds)))
		if k == KindRecursion {
			if recursions >= 1 {
				// The escalation ladder kills a process after a few
				// recursions; one probe per program keeps every mode
				// on the survivable rungs.
				k = KindWriteProt
			} else {
				recursions++
			}
		}
		p.Episodes = append(p.Episodes, k)
		var b strings.Builder
		emitEpisode(&b, r, i, k)
		p.stanzas = append(p.stanzas, b.String())
	}
	return p
}

// WithEpisodes returns a new program containing only the episodes at
// the given (ascending) indices of p, sharing their stanza text
// verbatim. The subset is a valid program: stanza labels carry their
// original episode index, so the text never collides, and every
// episode's recovery is self-contained. The shrinker bisects over this.
func (p *Program) WithEpisodes(keep []int) *Program {
	q := &Program{Seed: p.Seed, Eager: p.Eager, Extra: p.Extra}
	for _, i := range keep {
		q.Episodes = append(q.Episodes, p.Episodes[i])
		q.stanzas = append(q.stanzas, p.stanzas[i])
	}
	return q
}

// Source renders the program for one delivery mode. mutate, when true,
// substitutes a deliberately wrong handler policy (the recorded cause
// codes are offset) — the oracle self-test uses it to prove a semantic
// divergence in a single mode is detected.
func (p *Program) Source(mode core.Mode, mutate bool) string {
	policy, wrapper := policyText, ""
	if mutate {
		policy = mutatedPolicy
	}
	if mode == core.ModeHardware {
		wrapper = teraWrapper
	}
	// One concatenation allocates the text once, at its final size.
	return sourceHeader + prologue + setupStanza(mode) + zeroRegs + p.workload() + p.Extra +
		epilogue + policy + wrapper + dataStanza
}

// CountInsts counts the instruction lines of an assembly text: lines
// that are not blank, not comments, not labels, and not directives.
// Pseudo-instructions (li, la) count as one even when the assembler
// expands them to two — the count is a deterministic program-size
// proxy for budget scaling (RunBudget), not an exact word
// count, and it must be cheap enough to run per shard.
func CountInsts(src string) int {
	n := 0
	for rest := src; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		s := strings.TrimSpace(line)
		if i := strings.IndexByte(s, '#'); i >= 0 {
			s = strings.TrimSpace(s[:i])
		}
		if s == "" || s[0] == '.' || strings.HasSuffix(s, ":") {
			continue
		}
		n++
	}
	return n
}

// BudgetFloor is the legacy flat run bound, the floor of every scaled
// run budget (RunBudget): the programs run today converge orders of
// magnitude below it, so exhausting it is itself a failure.
const BudgetFloor = 3_000_000

// budgetBase is the fixed per-run allowance of a scaled budget — the
// launch stub, runtime prologue, and kernel overheads that do not grow
// with program size.
const budgetBase = 250_000

// budgetPerInst is the per-mode multiplier of the scaled budget: the
// worst-case cost of one emitted instruction, assuming every one of
// them faults and takes a full delivery round trip. The Unix path runs
// the most kernel instructions per fault (trap decode, sendsig copyout,
// trampoline, sigreturn copyin), the kernel fast path far fewer, and
// Tera-style hardware delivery fewer still — so the multipliers are
// ordered Ultrix > FastExc > Hardware (asserted by test).
func budgetPerInst(mode core.Mode) uint64 {
	switch mode {
	case core.ModeFast:
		return 500
	case core.ModeHardware:
		return 300
	default: // ModeUltrix
		return 1200
	}
}

// RunBudget is the one run-budget formula, for generated and fixed
// programs alike: insts instruction lines (CountInsts) × the mode's
// worst-case delivery multiplier, plus the fixed base, floored at
// BudgetFloor so the bound never shrinks for programs that already
// converge under it.
func RunBudget(insts int, mode core.Mode) uint64 {
	return max(budgetBase+uint64(insts)*budgetPerInst(mode), BudgetFloor)
}

// EmittedInsts is the instruction-line count of the program's full
// source for one mode — the size the scaled run budget is computed
// from. Mode matters: the setup stanza and the Hardware variant's
// Tera wrapper differ per mode.
func (p *Program) EmittedInsts(mode core.Mode) int {
	return CountInsts(p.Source(mode, false))
}

// sourceHeader defines the layout constants the stanzas below use.
var sourceHeader = fmt.Sprintf(`
	.equ DT_DATA,   %#x
	.equ DT_ARENA,  %#x
	.equ DT_RECPAGE,%#x
	.equ DT_LOGCAP, %d
	.equ DT_MAXENT, %d
`, DataBase, ArenaBase, RecPage, LogCap, maxPolicyEntries)

// prologue opens main and registers the Unix fallback handlers every
// mode needs (Ultrix as the primary path, Fast/Hardware for the
// escalation ladder's demotions).
const prologue = `
main:
	addiu sp, sp, -16
	sw    ra, 0(sp)
	li    a0, 5                # SIGTRAP (breakpoints)
	la    a1, dt_sighandler
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
	li    a0, 8                # SIGFPE (overflow)
	la    a1, dt_sighandler
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
	li    a0, 10               # SIGBUS (unaligned)
	la    a1, dt_sighandler
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
	li    a0, 11               # SIGSEGV (protection)
	la    a1, dt_sighandler
	la    a2, __sig_trampoline
	li    v0, SYS_sigaction
	syscall
	nop
`

// setupStanza is the only mode-dependent text.
func setupStanza(mode core.Mode) string {
	eager := `
	li    a0, 1
	li    v0, SYS_uexc_eager
	syscall
	nop
`
	switch mode {
	case core.ModeFast:
		return fmt.Sprintf(`
	la    t0, dt_chandler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, %#x
	jal   __uexc_enable
	nop
`, tlbMask|simpleMask) + eager
	case core.ModeHardware:
		return `
	la    t0, dt_chandler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    t0, dt_tera_handler
	mtxt  t0
` + eager
	default: // ModeUltrix: signals only; the eager flag is set for
		// syscall symmetry but never consulted outside the fast path.
		return eager
	}
}

// zeroRegs scrubs every register the setup stanzas may have touched so
// the workload starts from one register state in all three modes (the
// oracle compares the full file, minus kernel scratch, at exit).
const zeroRegs = `
	move  at, zero
	move  v0, zero
	move  v1, zero
	move  a0, zero
	move  a1, zero
	move  a2, zero
	move  a3, zero
	move  t0, zero
	move  t1, zero
	move  t2, zero
	move  t3, zero
	move  t4, zero
	move  t5, zero
	move  t6, zero
	move  t7, zero
	move  t8, zero
	move  t9, zero
	move  s0, zero
	move  s1, zero
	move  s2, zero
	move  s3, zero
	move  s4, zero
	move  s5, zero
	move  s6, zero
	move  s7, zero
	move  gp, zero
	move  fp, zero
	mthi  zero
	mtlo  zero
`

// epilogue dumps the oracle-visible register state and exits 0. The
// raw register file is also compared at halt; the dump makes the
// callee-saved story visible in the memory image too.
// SMCStanza is a self-modifying-code episode for Program.Extra: it
// plants a three-word thunk in the fault arena, calls it, patches its
// first instruction in place, and calls it again, folding both return
// values into the s1 accumulator. Every delivery mode must observe the
// patched instruction on the second call — an interpreter that caches
// decoded instructions without watching for stores diverges here. The
// stanza is mode-independent; arena collisions with episode stores or
// mprotect episodes only change what the thunk computes, identically in
// every mode.
const SMCStanza = `
# extra episode: self-modifying code probe
dt_smc:
	la    t0, dt_smc_src
	li    t1, DT_ARENA + 0x2f80
	lw    t2, 0(t0)
	sw    t2, 0(t1)
	lw    t2, 4(t0)
	sw    t2, 4(t1)
	lw    t2, 8(t0)
	sw    t2, 8(t1)
	jalr  t1                   # first call: v1 = 7
	nop
	addu  s1, s1, v1
	lw    t2, 12(t0)
	sw    t2, 0(t1)            # patch: addiu v1, zero, 7 -> 1234
	jalr  t1                   # second call must see the patch
	nop
	addu  s1, s1, v1
	b     dt_smc_done
	nop
dt_smc_src:
	addiu v1, zero, 7
	jr    ra
	nop
	addiu v1, zero, 1234
dt_smc_done:
	addiu s0, s0, 1
`

const epilogue = `
	la    t0, DT_DATA + 0x740
	sw    s0, 0(t0)
	sw    s1, 4(t0)
	sw    s2, 8(t0)
	sw    s3, 12(t0)
	sw    s4, 16(t0)
	sw    s5, 20(t0)
	sw    s6, 24(t0)
	sw    s7, 28(t0)
	mfhi  t1
	sw    t1, 32(t0)
	mflo  t1
	sw    t1, 36(t0)
	la    t0, DT_DATA + 0x708
	sw    s1, 0(t0)
	li    a0, 1
	la    a1, dt_msg
	li    a2, 3
	li    v0, SYS_write
	syscall
	nop
	# Scrub scratch registers: dt_msg's address (and anything else in
	# the caller-saved set) shifts with the mode stanza's code size, so
	# leaving it in a register would read as a spurious divergence.
	move  at, zero
	move  v1, zero
	move  a0, zero
	move  a1, zero
	move  a2, zero
	move  a3, zero
	move  t0, zero
	move  t1, zero
	move  t2, zero
	move  t3, zero
	move  t4, zero
	move  t5, zero
	move  t6, zero
	move  t7, zero
	move  t8, zero
	move  t9, zero
	lw    ra, 0(sp)
	addiu sp, sp, 16
	li    v0, 0
	jr    ra
	nop
`

// emitEpisode appends one episode's assembly. Accumulator register is
// s1; s0 holds a rolling episode counter; t-registers are scratch.
func emitEpisode(b *strings.Builder, r *rand.Rand, i int, k Kind) {
	fmt.Fprintf(b, "\n# episode %d: %s\ndt_ep%d:\n", i, k, i)
	page := r.Intn(ArenaPages - 1) // pages 0..2; page 3 is the recursion page
	wordOff := 4 * r.Intn(arch.PageSize/4-2)
	val := r.Int31()

	switch k {
	case KindBreak:
		fmt.Fprintf(b, `	break
	addiu s0, s0, 1
	addiu s1, s1, %d
`, r.Intn(255)+1)

	case KindOverflow:
		// 0x7fffffff + positive, or 0x80000000 + negative: guaranteed
		// signed overflow; the destination keeps its sentinel.
		sentinel := r.Int31()
		if r.Intn(2) == 0 {
			fmt.Fprintf(b, `	li    t1, 0x7fffffff
	li    t2, %d
	li    t3, %d
	add   t3, t1, t2           # Ov: skipped, t3 keeps the sentinel
	addu  s1, s1, t3
`, r.Intn(1<<20)+1, sentinel)
		} else {
			fmt.Fprintf(b, `	li    t1, 0x80000000
	li    t2, -%d
	li    t3, %d
	add   t3, t1, t2           # Ov: skipped, t3 keeps the sentinel
	addu  s1, s1, t3
`, r.Intn(1<<20)+1, sentinel)
		}

	case KindUnalignedLoad:
		fmt.Fprintf(b, `	li    t3, %d
	li    t2, DT_ARENA + %d + %d
	lw    t3, 0(t2)            # AdEL: skipped, t3 keeps the sentinel
	addu  s1, s1, t3
`, val, page*arch.PageSize+wordOff, 1+r.Intn(3))

	case KindUnalignedStore:
		fmt.Fprintf(b, `	li    t1, %d
	li    t2, DT_ARENA + %d + %d
	sw    t1, 0(t2)            # AdES: skipped, memory keeps its value
	li    t2, DT_ARENA + %d
	lw    t3, 0(t2)
	addu  s1, s1, t3
`, val, page*arch.PageSize+wordOff, 1+r.Intn(3), page*arch.PageSize+wordOff)

	case KindWriteProt:
		fmt.Fprintf(b, `	li    a0, DT_ARENA + %d
	li    a1, 4096
	li    a2, 1                # PROT_READ: arm the write-protect fault
	li    v0, SYS_mprotect
	syscall
	nop
	li    t1, %d
	li    t2, DT_ARENA + %d
	sw    t1, 0(t2)            # Mod: handler un-protects, store retries
	lw    t3, 0(t2)
	addu  s1, s1, t3
`, page*arch.PageSize, val, page*arch.PageSize+wordOff)

	case KindSubpage:
		sub := r.Intn(arch.PageSize / arch.SubpageSize)
		inOff := 4 * r.Intn(arch.SubpageSize/4)
		fmt.Fprintf(b, `	li    a0, DT_ARENA + %d
	li    a1, %d
	li    a2, 0                # protect one 1 KB subpage
	li    v0, SYS_subpage
	syscall
	nop
	li    t1, %d
	li    t2, DT_ARENA + %d
	sw    t1, 0(t2)            # Mod on the protected subpage: delivered
	lw    t3, 0(t2)
	addu  s1, s1, t3
`, page*arch.PageSize+sub*arch.SubpageSize, arch.SubpageSize, val,
			page*arch.PageSize+sub*arch.SubpageSize+inOff)

	case KindDelaySlot:
		taken := r.Intn(2)
		fmt.Fprintf(b, `	li    a0, DT_ARENA + %d
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	li    t1, %d
	li    t2, DT_ARENA + %d
	li    t3, %d
	bnez  t3, dt_ep%d_taken
	sw    t1, 0(t2)            # Mod in the delay slot: retry re-runs the branch
	addiu s1, s1, 7
	b     dt_ep%d_join
	nop
dt_ep%d_taken:
	addiu s1, s1, 13
dt_ep%d_join:
	lw    t4, 0(t2)
	addu  s1, s1, t4
`, page*arch.PageSize, val, page*arch.PageSize+wordOff, taken, i, i, i, i)

	case KindRecursion:
		fmt.Fprintf(b, `	li    a0, DT_RECPAGE
	li    a1, 4096
	li    a2, 1
	li    v0, SYS_mprotect
	syscall
	nop
	li    t1, %d
	li    t2, DT_RECPAGE + %d
	sw    t1, 0(t2)            # Mod whose handler breaks before recovering
	lw    t3, 0(t2)
	addu  s1, s1, t3
`, val, wordOff)

	case KindCompute:
		ops := 2 + r.Intn(5)
		for j := 0; j < ops; j++ {
			off := page*arch.PageSize + 4*r.Intn(arch.PageSize/4)
			switch r.Intn(4) {
			case 0:
				fmt.Fprintf(b, "\tli    t1, %d\n\tli    t2, DT_ARENA + %d\n\tsw    t1, 0(t2)\n", r.Int31(), off)
			case 1:
				fmt.Fprintf(b, "\tli    t2, DT_ARENA + %d\n\tlw    t3, 0(t2)\n\taddu  s1, s1, t3\n", off)
			case 2:
				fmt.Fprintf(b, "\tli    t1, %d\n\txor   s1, s1, t1\n", r.Int31())
			case 3:
				fmt.Fprintf(b, "\tli    t1, %d\n\tmult  s1, t1\n\tmflo  t4\n\taddu  s1, s1, t4\n", r.Intn(1<<16)+3)
			}
		}
		fmt.Fprintf(b, "\tsll   s2, s1, %d\n\taddu  s3, s3, s2\n", 1+r.Intn(7))
	}
}

// mutatedPolicy is policyText with the logged cause codes offset by
// 32: the deliberately wrong handler of Source's mutate variant, which
// is MutationInsts instruction lines longer.
var (
	mutatedPolicy = strings.Replace(policyText, "dt_log_store_cause:\n\tsw    a0, 0(t4)",
		"dt_log_store_cause:\n\taddiu t5, a0, 32\n\tsw    t5, 0(t4)", 1)
	MutationInsts = CountInsts(mutatedPolicy) - CountInsts(policyText)
)

// policyText is the shared handler stack: dt_chandler receives the
// fast/hardware exception frame (a0), dt_sighandler the Unix triple
// (sig, code, scp); both normalize to (code, badva), call dt_policy,
// and apply its skip verdict to their frame's saved EPC. dt_policy and
// its callees restrict themselves to the frame-saved register set
// {at, v0, v1, a0-a3, t0-t5, ra} plus the stack, the contract the
// minimal Tera wrapper imposes (callee-saved state is not re-saved).
const policyText = `
# --- C-level handler for the Fast and Hardware paths ------------------
dt_chandler:
	addiu sp, sp, -16
	sw    ra, 0(sp)
	sw    a0, 4(sp)            # frame VA
	lw    t0, 0x04(a0)         # FrCause
	srl   t0, t0, 2
	andi  t0, t0, 31
	lw    a1, 0x08(a0)         # FrBadVAddr
	move  a0, t0
	jal   dt_policy
	nop
	beqz  v0, dt_ch_done
	nop
	lw    t0, 4(sp)
	lw    t1, 0(t0)            # FrEPC
	addiu t1, t1, 4
	sw    t1, 0(t0)            # skip the faulting instruction
dt_ch_done:
	lw    ra, 0(sp)
	addiu sp, sp, 16
	jr    ra
	nop

# --- Unix signal handler (Ultrix path and demotion fallback) ----------
dt_sighandler:
	addiu sp, sp, -16
	sw    ra, 0(sp)
	sw    a2, 4(sp)            # sigcontext
	move  a0, a1               # exception code (raw)
	lw    a1, 132(a2)          # TfBadVA
	jal   dt_policy
	nop
	beqz  v0, dt_sig_done
	nop
	lw    t0, 4(sp)
	lw    t1, 124(t0)          # TfEPC
	addiu t1, t1, 4
	sw    t1, 124(t0)
dt_sig_done:
	lw    ra, 0(sp)
	addiu sp, sp, 16
	jr    ra
	nop

# --- Shared policy: a0 = code, a1 = badva; returns v0 = 1 to skip the
# --- faulting instruction, 0 to retry it after recovery ---------------
dt_policy:
	addiu sp, sp, -16
	sw    ra, 0(sp)
	# BadVAddr is architectural only for address/protection faults;
	# zero it otherwise so stale values never enter the log.
	li    t0, 9                # Bp
	beq   a0, t0, dt_pol_zbv
	nop
	li    t0, 12               # Ov
	bne   a0, t0, dt_pol_bvok
	nop
dt_pol_zbv:
	move  a1, zero
dt_pol_bvok:
	sw    a0, 4(sp)
	sw    a1, 8(sp)
	# Bound total handler entries: a runaway delivery loop exits 77
	# deterministically instead of burning the budget.
	la    t0, DT_DATA + 0x700
	lw    t1, 0(t0)
	addiu t1, t1, 1
	sw    t1, 0(t0)
	sltiu t2, t1, DT_MAXENT
	bnez  t2, dt_pol_log
	nop
	li    a0, 77
	li    v0, SYS_exit
	syscall
	nop
dt_pol_log:
	# Append (code, badva) to the handler-entry log.
	la    t0, DT_DATA + 0x000
	lw    t1, 0(t0)
	sltiu t2, t1, DT_LOGCAP
	beqz  t2, dt_pol_nolog
	nop
	sll   t3, t1, 3
	la    t4, DT_DATA + 0x008
	addu  t4, t4, t3
dt_log_store_cause:
	sw    a0, 0(t4)
	sw    a1, 4(t4)
	addiu t1, t1, 1
	sw    t1, 0(t0)
dt_pol_nolog:
	# Protection faults (Mod) are recovered by un-protecting and
	# retrying; everything else is recovered by skipping.
	li    t0, 1                # Mod
	lw    t1, 4(sp)
	bne   t1, t0, dt_pol_skip
	nop
	# Recursion probe: the first Mod on the reserved page takes a
	# nested breakpoint while this handler is still in progress.
	lw    t2, 8(sp)
	srl   t3, t2, 12
	li    t4, DT_RECPAGE >> 12
	bne   t3, t4, dt_pol_unprot
	nop
	la    t0, DT_DATA + 0x704
	lw    t1, 0(t0)
	bnez  t1, dt_pol_unprot
	nop
	li    t1, 1
	sw    t1, 0(t0)
	break                      # nested fault inside the handler
dt_pol_unprot:
	# Canonical idempotent recovery: release any subpage protection on
	# the faulting page, then return the page to read-write.
	lw    a0, 8(sp)
	srl   a0, a0, 12
	sll   a0, a0, 12
	li    a1, 4096
	li    a2, 3
	li    v0, SYS_subpage
	syscall
	nop
	lw    a0, 8(sp)
	srl   a0, a0, 12
	sll   a0, a0, 12
	li    a1, 4096
	li    a2, 3
	li    v0, SYS_mprotect
	syscall
	nop
	move  v0, zero             # retry the faulting instruction
	b     dt_pol_ret
	nop
dt_pol_skip:
	li    v0, 1
dt_pol_ret:
	lw    ra, 0(sp)
	addiu sp, sp, 16
	jr    ra
	nop

dt_msg:
	.ascii "ok\n"
	.align 4
`

// teraWrapper is the Hardware variant's low-level handler: the CPU
// vectored here directly (no kernel entry), so it saves the same frame
// layout the kernel fast path builds — including the cause and bad-
// address condition registers — calls the common C handler, restores,
// and return-exchanges through XT.
const teraWrapper = `
dt_tera_ret:
	xret
dt_tera_handler:
	la    k1, dt_tera_frame
	mfxt  k0
	sw    k0, 0x00(k1)         # FrEPC
	mfxc  k0
	sw    k0, 0x04(k1)         # FrCause
	mfxb  k0
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
	sw    t4, 0x3c(k1)
	sw    t5, 0x40(k1)
	sw    ra, 0x44(k1)
	move  t0, k1
	move  a0, t0
	la    t3, __fexc_chandler
	lw    t3, 0(t3)
	jalr  t3
	nop
dt_tera_handler_ret:
	la    t0, dt_tera_frame    # the C handler may have clobbered t0
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
	b     dt_tera_ret
	nop
	.align 8
dt_tera_frame:
	.space 128
`

// dataStanza reserves the oracle-visible regions at their fixed
// addresses (mode-independent by construction).
var dataStanza = fmt.Sprintf(`
	.org  %#x
dt_data:
	.space 4096
	.org  %#x
dt_arena:
	.space %d
`, DataBase, ArenaBase, ArenaPages*arch.PageSize)
