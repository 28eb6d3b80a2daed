package asm

import (
	"strconv"
	"strings"

	"uexc/internal/arch"
)

// regByName resolves a register operand: "$4", "4", "t0", "$t0", "r4".
func regByName(op string) (arch.Reg, bool) {
	op = strings.ToLower(strings.TrimSpace(op))
	op = strings.TrimPrefix(op, "$")
	for i, n := range arch.RegNames {
		if op == n {
			return arch.Reg(i), true
		}
	}
	if op == "s8" {
		return arch.RegFP, true
	}
	numeric := strings.TrimPrefix(op, "r")
	if n, err := strconv.Atoi(numeric); err == nil && n >= 0 && n < 32 {
		return arch.Reg(n), true
	}
	return 0, false
}

// c0ByName resolves a CP0 register operand: "c0_status", "$12", "12".
func c0ByName(op string) (uint8, bool) {
	op = strings.ToLower(strings.TrimSpace(op))
	for num, name := range arch.C0Names {
		if op == name {
			return num, true
		}
	}
	t := strings.TrimPrefix(op, "$")
	if n, err := strconv.Atoi(t); err == nil && n >= 0 && n < 32 {
		return uint8(n), true
	}
	return 0, false
}

func (a *assembler) reg(s *stmt, op string) (arch.Reg, error) {
	r, ok := regByName(op)
	if !ok {
		return 0, errf(s.line, "bad register %q", op)
	}
	return r, nil
}

func (a *assembler) expr(s *stmt, op string) (uint32, error) {
	v, err := evalExpr(op, a.lookup)
	if err != nil {
		return 0, errf(s.line, "%v", err)
	}
	return v, nil
}

// imm16 accepts values representable as either signed or unsigned
// 16-bit, as assemblers conventionally do for addiu/andi/….
func (a *assembler) imm16(s *stmt, op string) (uint16, error) {
	v, err := a.expr(s, op)
	if err != nil {
		return 0, err
	}
	if v > 0xffff && int32(v) < -0x8000 {
		return 0, errf(s.line, "immediate %#x does not fit in 16 bits", v)
	}
	return uint16(v), nil
}

// memOperand parses "off(base)", "(base)", or "off" (base = zero).
func (a *assembler) memOperand(s *stmt, op string) (uint16, arch.Reg, error) {
	op = strings.TrimSpace(op)
	open := strings.LastIndexByte(op, '(')
	if open < 0 {
		off, err := a.imm16(s, op)
		return off, arch.RegZero, err
	}
	if !strings.HasSuffix(op, ")") {
		return 0, 0, errf(s.line, "bad memory operand %q", op)
	}
	base, err := a.reg(s, op[open+1:len(op)-1])
	if err != nil {
		return 0, 0, err
	}
	offText := strings.TrimSpace(op[:open])
	if offText == "" {
		return 0, base, nil
	}
	off, err := a.imm16(s, offText)
	return off, base, err
}

func (a *assembler) branchOff(s *stmt, op string) (uint16, error) {
	target, err := a.expr(s, op)
	if err != nil {
		return 0, err
	}
	off, ok := arch.BranchOffset(s.addr, target)
	if !ok {
		return 0, errf(s.line, "branch target %#x out of range from %#x", target, s.addr)
	}
	return off, nil
}

func (a *assembler) need(s *stmt, n int) error {
	if len(s.ops) != n {
		return errf(s.line, "%s takes %d operands, got %d", s.mnemonic, n, len(s.ops))
	}
	return nil
}

// encodeInst encodes one instruction or pseudo-instruction at s.addr.
func (a *assembler) encodeInst(s *stmt) error {
	// Pseudo-instructions first.
	switch s.mnemonic {
	case "nop":
		s.putWord(0, 0)
		return nil
	case "move":
		if err := a.need(s, 2); err != nil {
			return err
		}
		rd, err := a.reg(s, s.ops[0])
		if err != nil {
			return err
		}
		rs, err := a.reg(s, s.ops[1])
		if err != nil {
			return err
		}
		s.putWord(0, arch.Encode(arch.Inst{Mn: arch.MnADDU, Rd: rd, Rs: rs}))
		return nil
	case "not":
		if err := a.need(s, 2); err != nil {
			return err
		}
		rd, err := a.reg(s, s.ops[0])
		if err != nil {
			return err
		}
		rs, err := a.reg(s, s.ops[1])
		if err != nil {
			return err
		}
		s.putWord(0, arch.Encode(arch.Inst{Mn: arch.MnNOR, Rd: rd, Rs: rs}))
		return nil
	case "neg":
		if err := a.need(s, 2); err != nil {
			return err
		}
		rd, err := a.reg(s, s.ops[0])
		if err != nil {
			return err
		}
		rt, err := a.reg(s, s.ops[1])
		if err != nil {
			return err
		}
		s.putWord(0, arch.Encode(arch.Inst{Mn: arch.MnSUBU, Rd: rd, Rt: rt}))
		return nil
	case "li", "la":
		if err := a.need(s, 2); err != nil {
			return err
		}
		rt, err := a.reg(s, s.ops[0])
		if err != nil {
			return err
		}
		v, err := a.expr(s, s.ops[1])
		if err != nil {
			return err
		}
		s.putWord(0, arch.Encode(arch.Inst{Mn: arch.MnLUI, Rt: rt, Imm: uint16(v >> 16)}))
		s.putWord(4, arch.Encode(arch.Inst{Mn: arch.MnORI, Rt: rt, Rs: rt, Imm: uint16(v)}))
		return nil
	case "b":
		if err := a.need(s, 1); err != nil {
			return err
		}
		off, err := a.branchOff(s, s.ops[0])
		if err != nil {
			return err
		}
		s.putWord(0, arch.Encode(arch.Inst{Mn: arch.MnBEQ, Imm: off}))
		return nil
	case "beqz", "bnez":
		if err := a.need(s, 2); err != nil {
			return err
		}
		rs, err := a.reg(s, s.ops[0])
		if err != nil {
			return err
		}
		off, err := a.branchOff(s, s.ops[1])
		if err != nil {
			return err
		}
		mn := arch.MnBEQ
		if s.mnemonic == "bnez" {
			mn = arch.MnBNE
		}
		s.putWord(0, arch.Encode(arch.Inst{Mn: mn, Rs: rs, Imm: off}))
		return nil
	}

	mn, ok := arch.ByName[s.mnemonic]
	if !ok {
		return errf(s.line, "unknown mnemonic %q", s.mnemonic)
	}
	inst := arch.Inst{Mn: mn}
	var err error

	switch arch.FormatOf(mn) {
	case arch.FmtNone:
		if len(s.ops) != 0 {
			return errf(s.line, "%s takes no operands", s.mnemonic)
		}
	case arch.FmtRdRsRt:
		if err = a.need(s, 3); err != nil {
			return err
		}
		if inst.Rd, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		if inst.Rs, err = a.reg(s, s.ops[1]); err != nil {
			return err
		}
		if inst.Rt, err = a.reg(s, s.ops[2]); err != nil {
			return err
		}
	case arch.FmtRdRtSa:
		if err = a.need(s, 3); err != nil {
			return err
		}
		if inst.Rd, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		if inst.Rt, err = a.reg(s, s.ops[1]); err != nil {
			return err
		}
		sa, err := a.expr(s, s.ops[2])
		if err != nil {
			return err
		}
		if sa > 31 {
			return errf(s.line, "shift amount %d out of range", sa)
		}
		inst.Shamt = uint8(sa)
	case arch.FmtRdRtRs:
		if err = a.need(s, 3); err != nil {
			return err
		}
		if inst.Rd, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		if inst.Rt, err = a.reg(s, s.ops[1]); err != nil {
			return err
		}
		if inst.Rs, err = a.reg(s, s.ops[2]); err != nil {
			return err
		}
	case arch.FmtRs:
		if err = a.need(s, 1); err != nil {
			return err
		}
		if inst.Rs, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
	case arch.FmtRdRs:
		// jalr: one-operand form defaults rd = ra.
		switch len(s.ops) {
		case 1:
			inst.Rd = arch.RegRA
			if inst.Rs, err = a.reg(s, s.ops[0]); err != nil {
				return err
			}
		case 2:
			if inst.Rd, err = a.reg(s, s.ops[0]); err != nil {
				return err
			}
			if inst.Rs, err = a.reg(s, s.ops[1]); err != nil {
				return err
			}
		default:
			return errf(s.line, "%s takes 1 or 2 operands", s.mnemonic)
		}
	case arch.FmtRd:
		if err = a.need(s, 1); err != nil {
			return err
		}
		if inst.Rd, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
	case arch.FmtRsRt:
		if err = a.need(s, 2); err != nil {
			return err
		}
		if inst.Rs, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		if inst.Rt, err = a.reg(s, s.ops[1]); err != nil {
			return err
		}
	case arch.FmtRtRsImm:
		if err = a.need(s, 3); err != nil {
			return err
		}
		if inst.Rt, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		if inst.Rs, err = a.reg(s, s.ops[1]); err != nil {
			return err
		}
		if inst.Imm, err = a.imm16(s, s.ops[2]); err != nil {
			return err
		}
	case arch.FmtRtImm:
		if err = a.need(s, 2); err != nil {
			return err
		}
		if inst.Rt, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		if inst.Imm, err = a.imm16(s, s.ops[1]); err != nil {
			return err
		}
	case arch.FmtRsRtOff:
		if err = a.need(s, 3); err != nil {
			return err
		}
		if inst.Rs, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		if inst.Rt, err = a.reg(s, s.ops[1]); err != nil {
			return err
		}
		if inst.Imm, err = a.branchOff(s, s.ops[2]); err != nil {
			return err
		}
	case arch.FmtRsOff:
		if err = a.need(s, 2); err != nil {
			return err
		}
		if inst.Rs, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		if inst.Imm, err = a.branchOff(s, s.ops[1]); err != nil {
			return err
		}
	case arch.FmtRtOffBase:
		if err = a.need(s, 2); err != nil {
			return err
		}
		if inst.Rt, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		var base arch.Reg
		var off uint16
		if off, base, err = a.memOperand(s, s.ops[1]); err != nil {
			return err
		}
		inst.Rs, inst.Imm = base, off
	case arch.FmtTarget:
		if err = a.need(s, 1); err != nil {
			return err
		}
		target, err := a.expr(s, s.ops[0])
		if err != nil {
			return err
		}
		fld, ok := arch.JumpField(s.addr, target)
		if !ok {
			return errf(s.line, "jump target %#x unreachable from %#x", target, s.addr)
		}
		inst.Target = fld
	case arch.FmtCode:
		switch len(s.ops) {
		case 0:
		case 1:
			code, err := a.expr(s, s.ops[0])
			if err != nil {
				return err
			}
			if code > 0xfffff {
				return errf(s.line, "code %#x exceeds 20 bits", code)
			}
			inst.Code = code
		default:
			return errf(s.line, "%s takes 0 or 1 operands", s.mnemonic)
		}
	case arch.FmtRtC0:
		if err = a.need(s, 2); err != nil {
			return err
		}
		if inst.Rt, err = a.reg(s, s.ops[0]); err != nil {
			return err
		}
		c0, ok := c0ByName(s.ops[1])
		if !ok {
			return errf(s.line, "bad cp0 register %q", s.ops[1])
		}
		inst.C0Reg = c0
	}

	s.putWord(0, arch.Encode(inst))
	return nil
}
