package cpu

// Basic-block discovery and translation for the JIT execution tier
// (translate.go, DESIGN.md §15). A block is a straight-line run of
// instructions from one physical code page, compiled into a dense
// µop array that execBlock dispatches through a single switch — the
// "threaded code" shape: decode/operand work is paid once per
// compile, not once per dynamic instruction.
//
// The compiler is deliberately conservative. A block only contains
// instructions whose non-faulting execution touches GPR/HI/LO/XT and
// data memory — never CP0, the TLB, privilege state, or host hooks —
// so a block body cannot invalidate its own guards mid-flight (the
// one exception, a store into the block's own code page, is detected
// by the executor and exits the block). Everything else ends the
// block: the interpreter remains the single source of truth for
// exceptions, system instructions, and anything with an unprovable
// delay-slot boundary.

import (
	"uexc/internal/arch"
	"uexc/internal/mem"
)

// µop kinds. Dense values so the executor's switch compiles to a
// jump table.
const (
	uNop uint8 = iota

	// shifts
	uSLL  // rd = rt << imm
	uSRL  // rd = rt >> imm
	uSRA  // rd = int32(rt) >> imm
	uSLLV // rd = rt << (rs&31)
	uSRLV // rd = rt >> (rs&31)
	uSRAV // rd = int32(rt) >> (rs&31)

	// hi/lo and multiply/divide
	uMFHI
	uMTHI
	uMFLO
	uMTLO
	uMULT
	uMULTU
	uDIV
	uDIVU

	// three-register ALU
	uADD // overflow-checked: bails to the interpreter on ExcOv
	uADDU
	uSUB // overflow-checked
	uSUBU
	uAND
	uOR
	uXOR
	uNOR
	uSLT
	uSLTU

	// immediate ALU (imm pre-extended at compile time)
	uADDI // overflow-checked
	uADDIU
	uSLTI
	uSLTIU
	uANDI
	uORI
	uXORI
	uLUI // imm holds the pre-shifted constant

	// exception-register moves (unprivileged by design, §2)
	uMFXT
	uMTXT
	uMFXC
	uMFXB

	// loads/stores (imm = sign-extended displacement)
	uLB
	uLBU
	uLH
	uLHU
	uLW
	uSB
	uSH
	uSW

	// block terminators: branches and jumps, each followed in ops by
	// its (compilable, non-branch, same-page) delay slot. imm holds
	// the absolute taken target for J/JAL and the conditional
	// branches; JR/JALR read it from rs at run time.
	uJ
	uJAL
	uJR
	uJALR
	uBEQ
	uBNE
	uBLEZ
	uBGTZ
	uBLTZ
	uBGEZ
	uBLTZAL
	uBGEZAL
)

// uop is one translated instruction: 8 bytes, operands pre-extracted
// and immediates pre-extended/pre-resolved.
type uop struct {
	kind uint8
	rd   uint8 // destination (0 = architecturally discarded)
	rs   uint8
	rt   uint8
	imm  uint32
}

// jitBlock is one compiled basic block, owned by the predecode cache
// of its physical page (pageInsts.blocks, indexed by starting word
// offset). The guard fields are checked on every entry; gen rides the
// same mem.Page store generation the predecode cache trusts, so any
// store into the page — SMC, program load, injected corruption —
// invalidates the block exactly when it invalidates the decode.
//
// A moved generation alone does not condemn the block. Its µops are a
// pure function of its start VA and the words discovery read (src), so
// when the page still holds those words the block is exactly what a
// fresh compile would build, and jitStep adopts the new generation in
// place (revalidate). Program load and snapshot restore rewrite user
// pages with the same bytes run after run; this is what lets their
// blocks survive.
type jitBlock struct {
	gen     uint64    // page.Gen at compile time or last revalidation
	page    *mem.Page // physical identity, for own-page store detection
	startVA uint32    // VA of ops[0] when compiled
	vpn     uint32    // startVA >> PageShift: VA-dependent targets/links
	kmode   bool      // privilege mode at compile time
	counted bool      // fetches went through the TLB: hits must count
	ops     []uop     // nil/empty: sentinel "uncompilable here" marker
	// src holds, in imm, every word discovery read from startVA on:
	// ops' own words, then the words that ended discovery — an
	// uncompilable word, or a branch whose delay slot could not join
	// the block, with that slot if it is on the page. A block ended by
	// the page or by its own delay slot has none. src heads the array
	// ops ends, and its capacity spans the whole array.
	src []uop
}

// revalidate reports whether the page still holds every word b was
// discovered from; if so b adopts the page's current generation.
func (b *jitBlock) revalidate() bool {
	va := b.startVA
	for i := range b.src {
		if b.page.Word(va) != b.src[i].imm {
			return false
		}
		va += 4
	}
	b.gen = b.page.Gen()
	return true
}

// compileBlock translates the straight-line run starting at pc (which
// the caller has already resolved through the micro-ITLB entry e) and
// returns the block, which may be an empty sentinel when the first
// instruction is not compilable. Blocks never span a page boundary:
// discovery stops at the end of the physical page, and a branch whose
// delay slot would fall off the page (or is itself a branch, or is
// not compilable) ends the block *before* the branch so the
// interpreter handles the pair with full delay-slot semantics.
//
// The source words and the µops share one allocation, words first, so
// a compile allocates twice: the block and that array.
func (c *CPU) compileBlock(pc uint32, e *utlbEntry) *jitBlock {
	b := new(jitBlock)
	c.compileInto(b, pc, e)
	return b
}

// compileInto compiles the block at pc into b, reusing b's array (src's
// full capacity) when the new block fits. jitStep recompiles a stale
// block this way in place: a block is referenced only from its slot in
// the page's block table.
func (c *CPU) compileInto(b *jitBlock, pc uint32, e *utlbEntry) {
	pg, pi := e.page, e.insts
	ops, words := c.discover(pc, pg, pi)
	n := len(ops)
	buf := b.src[:cap(b.src)]
	if len(buf) < words+n {
		buf = make([]uop, words+n)
	}
	*b = jitBlock{
		gen:     pg.Gen(),
		page:    pg,
		startVA: pc,
		vpn:     pc >> arch.PageShift,
		kmode:   c.KernelMode(),
		counted: e.counted,
		src:     buf[:words],
		ops:     buf[words : words+n : words+n],
	}
	copy(b.ops, ops)
	for i := range b.src {
		b.src[i] = uop{imm: pg.Word(pc + uint32(i)*4)}
	}
}

// discover collects the block's µops into the CPU's scratch buffer and
// returns them with the number of words it read from pc on; the buffer
// is overwritten by the next compile.
func (c *CPU) discover(pc uint32, pg *mem.Page, pi *pageInsts) ([]uop, int) {
	ops := c.blockScratch[:0]
	w := pc & (arch.PageSize - 1) >> 2
	last := uint32(arch.PageSize / 4)
	va := pc
	words := 0
	for w < last {
		inst := pi.fetch(pg, va)
		words++
		op, ok, branch := compileOne(&inst, va)
		if !ok {
			break
		}
		if branch {
			// A branch needs its delay slot inside the block: same
			// page, compilable, and not itself a branch.
			if w+1 >= last {
				break
			}
			dinst := pi.fetch(pg, va+4)
			words++
			dop, dok, dbranch := compileOne(&dinst, va+4)
			if !dok || dbranch {
				break
			}
			ops = append(ops, op, dop)
			break
		}
		ops = append(ops, op)
		w++
		va += 4
	}
	c.blockScratch = ops[:0]
	return ops, words
}

// compileOne translates a single decoded instruction at va into a µop.
// ok=false means the instruction ends block discovery (system
// instructions, unaligned-word ops, anything that can redirect
// control outside branchTo). branch=true marks block terminators.
//
// Destinations that are architecturally discarded (rd/rt = r0) fold
// to uNop when the op cannot fault — the interpreter writes g[0] and
// re-zeroes it after the step, which is equivalent — and keep a
// run-time rd!=0 guard when side effects (faults, memory access,
// links) must still happen. Keeping the 1:1 op↔instruction mapping
// means the executor can reconstruct any VA as startVA + 4*index.
func compileOne(i *arch.Inst, va uint32) (uop, bool, bool) {
	simm := uint32(i.SImm())
	switch i.Mn {
	// --- shifts ---
	case arch.MnSLL:
		if i.Rd == 0 { // includes the canonical NOP encoding
			return uop{kind: uNop}, true, false
		}
		return uop{kind: uSLL, rd: uint8(i.Rd), rt: uint8(i.Rt), imm: uint32(i.Shamt)}, true, false
	case arch.MnSRL:
		if i.Rd == 0 {
			return uop{kind: uNop}, true, false
		}
		return uop{kind: uSRL, rd: uint8(i.Rd), rt: uint8(i.Rt), imm: uint32(i.Shamt)}, true, false
	case arch.MnSRA:
		if i.Rd == 0 {
			return uop{kind: uNop}, true, false
		}
		return uop{kind: uSRA, rd: uint8(i.Rd), rt: uint8(i.Rt), imm: uint32(i.Shamt)}, true, false
	case arch.MnSLLV, arch.MnSRLV, arch.MnSRAV:
		if i.Rd == 0 {
			return uop{kind: uNop}, true, false
		}
		k := uSLLV
		switch i.Mn {
		case arch.MnSRLV:
			k = uSRLV
		case arch.MnSRAV:
			k = uSRAV
		}
		return uop{kind: k, rd: uint8(i.Rd), rs: uint8(i.Rs), rt: uint8(i.Rt)}, true, false

	// --- hi/lo and multiply/divide ---
	case arch.MnMFHI:
		if i.Rd == 0 {
			return uop{kind: uNop}, true, false
		}
		return uop{kind: uMFHI, rd: uint8(i.Rd)}, true, false
	case arch.MnMTHI:
		return uop{kind: uMTHI, rs: uint8(i.Rs)}, true, false
	case arch.MnMFLO:
		if i.Rd == 0 {
			return uop{kind: uNop}, true, false
		}
		return uop{kind: uMFLO, rd: uint8(i.Rd)}, true, false
	case arch.MnMTLO:
		return uop{kind: uMTLO, rs: uint8(i.Rs)}, true, false
	case arch.MnMULT:
		return uop{kind: uMULT, rs: uint8(i.Rs), rt: uint8(i.Rt)}, true, false
	case arch.MnMULTU:
		return uop{kind: uMULTU, rs: uint8(i.Rs), rt: uint8(i.Rt)}, true, false
	case arch.MnDIV:
		return uop{kind: uDIV, rs: uint8(i.Rs), rt: uint8(i.Rt)}, true, false
	case arch.MnDIVU:
		return uop{kind: uDIVU, rs: uint8(i.Rs), rt: uint8(i.Rt)}, true, false

	// --- three-register ALU ---
	case arch.MnADD:
		return uop{kind: uADD, rd: uint8(i.Rd), rs: uint8(i.Rs), rt: uint8(i.Rt)}, true, false
	case arch.MnSUB:
		return uop{kind: uSUB, rd: uint8(i.Rd), rs: uint8(i.Rs), rt: uint8(i.Rt)}, true, false
	case arch.MnADDU, arch.MnSUBU, arch.MnAND, arch.MnOR, arch.MnXOR,
		arch.MnNOR, arch.MnSLT, arch.MnSLTU:
		if i.Rd == 0 {
			return uop{kind: uNop}, true, false
		}
		var k uint8
		switch i.Mn {
		case arch.MnADDU:
			k = uADDU
		case arch.MnSUBU:
			k = uSUBU
		case arch.MnAND:
			k = uAND
		case arch.MnOR:
			k = uOR
		case arch.MnXOR:
			k = uXOR
		case arch.MnNOR:
			k = uNOR
		case arch.MnSLT:
			k = uSLT
		default:
			k = uSLTU
		}
		return uop{kind: k, rd: uint8(i.Rd), rs: uint8(i.Rs), rt: uint8(i.Rt)}, true, false

	// --- immediate ALU ---
	case arch.MnADDI:
		return uop{kind: uADDI, rd: uint8(i.Rt), rs: uint8(i.Rs), imm: simm}, true, false
	case arch.MnADDIU, arch.MnSLTI, arch.MnSLTIU:
		if i.Rt == 0 {
			return uop{kind: uNop}, true, false
		}
		k := uADDIU
		switch i.Mn {
		case arch.MnSLTI:
			k = uSLTI
		case arch.MnSLTIU:
			k = uSLTIU
		}
		return uop{kind: k, rd: uint8(i.Rt), rs: uint8(i.Rs), imm: simm}, true, false
	case arch.MnANDI, arch.MnORI, arch.MnXORI:
		if i.Rt == 0 {
			return uop{kind: uNop}, true, false
		}
		k := uANDI
		switch i.Mn {
		case arch.MnORI:
			k = uORI
		case arch.MnXORI:
			k = uXORI
		}
		return uop{kind: k, rd: uint8(i.Rt), rs: uint8(i.Rs), imm: uint32(i.Imm)}, true, false
	case arch.MnLUI:
		if i.Rt == 0 {
			return uop{kind: uNop}, true, false
		}
		return uop{kind: uLUI, rd: uint8(i.Rt), imm: uint32(i.Imm) << 16}, true, false

	// --- exception-register moves ---
	case arch.MnMFXT, arch.MnMFXC, arch.MnMFXB:
		if i.Rd == 0 {
			return uop{kind: uNop}, true, false
		}
		k := uMFXT
		switch i.Mn {
		case arch.MnMFXC:
			k = uMFXC
		case arch.MnMFXB:
			k = uMFXB
		}
		return uop{kind: k, rd: uint8(i.Rd)}, true, false
	case arch.MnMTXT:
		return uop{kind: uMTXT, rs: uint8(i.Rs)}, true, false

	// --- loads/stores ---
	case arch.MnLB, arch.MnLBU, arch.MnLH, arch.MnLHU, arch.MnLW:
		var k uint8
		switch i.Mn {
		case arch.MnLB:
			k = uLB
		case arch.MnLBU:
			k = uLBU
		case arch.MnLH:
			k = uLH
		case arch.MnLHU:
			k = uLHU
		default:
			k = uLW
		}
		return uop{kind: k, rd: uint8(i.Rt), rs: uint8(i.Rs), imm: simm}, true, false
	case arch.MnSB, arch.MnSH, arch.MnSW:
		k := uSB
		switch i.Mn {
		case arch.MnSH:
			k = uSH
		case arch.MnSW:
			k = uSW
		}
		return uop{kind: k, rs: uint8(i.Rs), rt: uint8(i.Rt), imm: simm}, true, false

	// --- terminators ---
	case arch.MnJ:
		return uop{kind: uJ, imm: arch.JumpTarget(va, i.Target)}, true, true
	case arch.MnJAL:
		return uop{kind: uJAL, imm: arch.JumpTarget(va, i.Target)}, true, true
	case arch.MnJR:
		return uop{kind: uJR, rs: uint8(i.Rs)}, true, true
	case arch.MnJALR:
		return uop{kind: uJALR, rd: uint8(i.Rd), rs: uint8(i.Rs)}, true, true
	case arch.MnBEQ, arch.MnBNE:
		k := uBEQ
		if i.Mn == arch.MnBNE {
			k = uBNE
		}
		return uop{kind: k, rs: uint8(i.Rs), rt: uint8(i.Rt), imm: arch.BranchTarget(va, i.Imm)}, true, true
	case arch.MnBLEZ, arch.MnBGTZ, arch.MnBLTZ, arch.MnBGEZ,
		arch.MnBLTZAL, arch.MnBGEZAL:
		var k uint8
		switch i.Mn {
		case arch.MnBLEZ:
			k = uBLEZ
		case arch.MnBGTZ:
			k = uBGTZ
		case arch.MnBLTZ:
			k = uBLTZ
		case arch.MnBGEZ:
			k = uBGEZ
		case arch.MnBLTZAL:
			k = uBLTZAL
		default:
			k = uBGEZAL
		}
		return uop{kind: k, rs: uint8(i.Rs), imm: arch.BranchTarget(va, i.Imm)}, true, true
	}

	// Everything else — SYSCALL/BREAK, CP0 and TLB management, RFE,
	// HCALL, XRET, UTLBMOD, the unaligned LWL/LWR/SWL/SWR family, and
	// invalid encodings — stays interpreter-only.
	return uop{}, false, false
}
