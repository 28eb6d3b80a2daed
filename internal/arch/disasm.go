package arch

import "fmt"

// Disassemble renders a decoded instruction as assembler text. pc is the
// address of the instruction, used to render branch targets absolutely.
func Disassemble(i Inst, pc uint32) string {
	s := specs[i.Mn]
	switch s.fmt {
	case FmtNone:
		return s.name
	case FmtRdRsRt:
		return fmt.Sprintf("%s %s, %s, %s", s.name, i.Rd, i.Rs, i.Rt)
	case FmtRdRtSa:
		return fmt.Sprintf("%s %s, %s, %d", s.name, i.Rd, i.Rt, i.Shamt)
	case FmtRdRtRs:
		return fmt.Sprintf("%s %s, %s, %s", s.name, i.Rd, i.Rt, i.Rs)
	case FmtRs:
		return fmt.Sprintf("%s %s", s.name, i.Rs)
	case FmtRdRs:
		return fmt.Sprintf("%s %s, %s", s.name, i.Rd, i.Rs)
	case FmtRd:
		return fmt.Sprintf("%s %s", s.name, i.Rd)
	case FmtRsRt:
		return fmt.Sprintf("%s %s, %s", s.name, i.Rs, i.Rt)
	case FmtRtRsImm:
		return fmt.Sprintf("%s %s, %s, %d", s.name, i.Rt, i.Rs, i.SImm())
	case FmtRtImm:
		return fmt.Sprintf("%s %s, 0x%x", s.name, i.Rt, i.Imm)
	case FmtRsRtOff:
		return fmt.Sprintf("%s %s, %s, 0x%x", s.name, i.Rs, i.Rt, BranchTarget(pc, i.Imm))
	case FmtRsOff:
		return fmt.Sprintf("%s %s, 0x%x", s.name, i.Rs, BranchTarget(pc, i.Imm))
	case FmtRtOffBase:
		return fmt.Sprintf("%s %s, %d(%s)", s.name, i.Rt, i.SImm(), i.Rs)
	case FmtTarget:
		return fmt.Sprintf("%s 0x%x", s.name, JumpTarget(pc, i.Target))
	case FmtCode:
		if i.Code == 0 {
			return s.name
		}
		return fmt.Sprintf("%s %d", s.name, i.Code)
	case FmtRtC0:
		c0 := C0Names[i.C0Reg]
		if c0 == "" {
			c0 = fmt.Sprintf("$%d", i.C0Reg)
		}
		return fmt.Sprintf("%s %s, %s", s.name, i.Rt, c0)
	}
	return "invalid"
}

// DisassembleWord decodes and renders a raw instruction word.
func DisassembleWord(w uint32, pc uint32) string {
	i := Decode(w)
	if i.Mn == MnInvalid {
		return fmt.Sprintf(".word 0x%08x", w)
	}
	return Disassemble(i, pc)
}

// BranchTarget computes the absolute address of a branch with the given
// 16-bit offset field, relative to the instruction at pc (target is
// pc + 4 + signext(off) * 4).
func BranchTarget(pc uint32, off uint16) uint32 {
	return pc + 4 + uint32(int32(int16(off)))<<2
}

// BranchOffset computes the 16-bit offset field encoding a branch from
// pc to target. ok is false if the displacement does not fit. The
// displacement is taken modulo 2^32, as BranchTarget adds it, so
// branches across 0x80000000 and 0xFFFFFFFF encode like any other.
func BranchOffset(pc, target uint32) (off uint16, ok bool) {
	d := int32(target - (pc + 4))
	if d&3 != 0 {
		return 0, false
	}
	d >>= 2
	if d < -32768 || d > 32767 {
		return 0, false
	}
	return uint16(int16(d)), true
}

// JumpTarget computes the absolute address of a j/jal with the given
// 26-bit target field executed at pc (the target shares pc+4's top
// 4 bits).
func JumpTarget(pc, target uint32) uint32 {
	return (pc+4)&0xf0000000 | target<<2
}

// JumpField computes the 26-bit target field encoding a jump from pc to
// target. ok is false if target is not in pc's 256 MB region or is
// unaligned.
func JumpField(pc, target uint32) (uint32, bool) {
	if target&3 != 0 || (pc+4)&0xf0000000 != target&0xf0000000 {
		return 0, false
	}
	return target >> 2 & 0x3ffffff, true
}
