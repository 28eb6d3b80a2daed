package asm

import (
	"encoding/binary"
	"strings"
	"unicode/utf8"

	"uexc/internal/arch"
)

// regNames resolves the two-letter register names, "s8" included, by
// their lower-case letters: regNames[a-'a'][nameIndex(b)] is the
// register number plus one, or 0. "zero" is the one longer name.
var regNames = func() (t [26][36]uint8) {
	for i, n := range arch.RegNames {
		if len(n) == 2 {
			t[n[0]-'a'][nameIndex(n[1])] = uint8(i) + 1
		}
	}
	t['s'-'a'][nameIndex('8')] = uint8(arch.RegFP) + 1
	return t
}()

// nameIndex maps a lower-case letter or digit to [0, 36), and any other
// byte past it.
func nameIndex(c byte) int {
	switch {
	case 'a' <= c && c <= 'z':
		return int(c - 'a')
	case '0' <= c && c <= '9':
		return 26 + int(c-'0')
	}
	return 36
}

// c0Names resolves lower-case CP0 register names.
var c0Names = func() map[string]uint8 {
	t := make(map[string]uint8, len(arch.C0Names))
	for num, n := range arch.C0Names {
		t[n] = num
	}
	return t
}()

// Longest CP0 register name: "c0_badvaddr".
const maxC0Name = 11

// foldName trims op and case-folds it if it holds a non-ASCII rune,
// which may fold to ASCII (the Kelvin sign to k); the lookups fold
// ASCII letters themselves.
func foldName(op string) string {
	op = strings.TrimSpace(op)
	for i := 0; i < len(op); i++ {
		if op[i] >= utf8.RuneSelf {
			return strings.ToLower(op)
		}
	}
	return op
}

// smallDecimal accepts what strconv.Atoi accepts — an optional sign
// and decimal digits — when its value is in [0, 32).
func smallDecimal(s string) (uint8, bool) {
	neg := false
	if s != "" && (s[0] == '+' || s[0] == '-') {
		neg, s = s[0] == '-', s[1:]
	}
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n < 32 {
			n = n*10 + int(c-'0')
		}
	}
	if n >= 32 || neg && n != 0 {
		return 0, false
	}
	return uint8(n), true
}

// regByName resolves a register operand: "$4", "4", "t0", "$t0", "r4",
// in any case.
func regByName(op string) (arch.Reg, bool) {
	op = foldName(op)
	op = strings.TrimPrefix(op, "$")
	switch len(op) {
	case 2:
		if a := lower(op[0]); 'a' <= a && a <= 'z' {
			if i := nameIndex(lower(op[1])); i < 36 {
				if r := regNames[a-'a'][i]; r != 0 {
					return arch.Reg(r - 1), true
				}
			}
		}
	case 4:
		if strings.EqualFold(op, "zero") {
			return arch.RegZero, true
		}
	}
	if op != "" && lower(op[0]) == 'r' {
		op = op[1:]
	}
	n, ok := smallDecimal(op)
	return arch.Reg(n), ok
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// c0ByName resolves a CP0 register operand: "c0_status", "$12", "12".
func c0ByName(op string) (uint8, bool) {
	op = foldName(op)
	if len(op) <= maxC0Name {
		var buf [maxC0Name]byte
		for i := 0; i < len(op); i++ {
			buf[i] = lower(op[i])
		}
		// Indexing by string(bytes) allocates nothing.
		if n, ok := c0Names[string(buf[:len(op)])]; ok {
			return n, true
		}
	}
	return smallDecimal(strings.TrimPrefix(op, "$"))
}

// site is one placed statement being encoded: its text, operands, line,
// address and window into its chunk, and the symbol table.
type site struct {
	syms map[string]uint32
	t    *Text
	s    *stmt
	ops  []operand
	line int
	addr uint32
	out  []byte
}

// putWord stores w little-endian at byte offset off of the window.
func (e *site) putWord(off uint32, w uint32) { binary.LittleEndian.PutUint32(e.out[off:], w) }

// reg returns operand i's register, or a bad operand's diagnostic.
func (e *site) reg(i int) (arch.Reg, error) {
	if e.ops[i].bad {
		_, err := e.expr(i)
		return 0, err
	}
	return e.ops[i].reg, nil
}

func (e *site) expr(i int) (uint32, error) {
	v, err := e.t.eval(e.ops[i].expr, e.syms)
	if err != nil {
		return 0, errf(e.line, "%v", err)
	}
	return v, nil
}

// imm16 accepts values representable as either signed or unsigned
// 16-bit, as assemblers conventionally do for addiu/andi/….
func (e *site) imm16(i int) (uint16, error) {
	v, err := e.expr(i)
	if err != nil {
		return 0, err
	}
	if v > 0xffff && int32(v) < -0x8000 {
		return 0, errf(e.line, "immediate %#x does not fit in 16 bits", v)
	}
	return uint16(v), nil
}

// memOperand returns an "off(base)", "(base)" or "off" operand's
// offset and base.
func (e *site) memOperand(i int) (uint16, arch.Reg, error) {
	base, err := e.reg(i)
	if err != nil {
		return 0, 0, err
	}
	off, err := e.imm16(i)
	return off, base, err
}

func (e *site) branchOff(i int) (uint16, error) {
	target, err := e.expr(i)
	if err != nil {
		return 0, err
	}
	off, ok := arch.BranchOffset(e.addr, target)
	if !ok {
		return 0, errf(e.line, "branch target %#x out of range from %#x", target, e.addr)
	}
	return off, nil
}

// encode fills one placed statement's window.
func (e *site) encode() error {
	switch e.s.kind {
	case kWord:
		for i := range e.ops {
			v, err := e.expr(i)
			if err != nil {
				return err
			}
			e.putWord(4*uint32(i), v)
		}
		return nil
	case kHalf:
		for i := range e.ops {
			v, err := e.expr(i)
			if err != nil {
				return err
			}
			if v > 0xffff {
				return errf(e.line, ".half value %#x too large", v)
			}
			binary.LittleEndian.PutUint16(e.out[2*i:], uint16(v))
		}
		return nil
	case kByte:
		for i := range e.ops {
			v, err := e.expr(i)
			if err != nil {
				return err
			}
			if v > 0xff {
				return errf(e.line, ".byte value %#x too large", v)
			}
			e.out[i] = byte(v)
		}
		return nil
	case kAscii, kAsciiz:
		copy(e.out, e.s.arg)
		if e.s.kind == kAsciiz {
			e.out[len(e.s.arg)] = 0
		}
		return nil
	case kAlign, kSpace:
		// Zero the window: an earlier statement may have written here.
		clear(e.out)
		return nil
	case kNop:
		e.putWord(0, 0)
		return nil
	}
	return e.encodeInst()
}

// encodeInst encodes an instruction, or li/la's pair, at e.addr: it
// checks the operand count, then fills each operand's slot in order,
// so the first failing operand wins.
func (e *site) encodeInst() error {
	m, n := e.s.m, len(e.ops)
	switch {
	case m.optional && n == len(m.slots)-1:
	case m.optional && n != len(m.slots):
		return errf(e.line, "%s takes %d or %d operands", e.s.name, len(m.slots)-1, len(m.slots))
	case len(m.slots) == 0 && n != 0:
		return errf(e.line, "%s takes no operands", e.s.name)
	case n != len(m.slots):
		return errf(e.line, "%s takes %d operands, got %d", e.s.name, len(m.slots), n)
	}
	inst := arch.Inst{Mn: m.mn}
	if n < len(m.slots) && m.slots[0] == sRd {
		inst.Rd = arch.RegRA // jalr rs links through ra
	}
	var wide uint32
	for i := range e.ops {
		var err error
		switch m.slot(i, n) {
		case sRd:
			inst.Rd, err = e.reg(i)
		case sRs:
			inst.Rs, err = e.reg(i)
		case sRt:
			inst.Rt, err = e.reg(i)
		case sC0:
			var c0 arch.Reg
			c0, err = e.reg(i)
			inst.C0Reg = uint8(c0)
		case sMem:
			inst.Imm, inst.Rs, err = e.memOperand(i)
		case sImm:
			inst.Imm, err = e.imm16(i)
		case sBranch:
			inst.Imm, err = e.branchOff(i)
		case sShamt:
			var sa uint32
			if sa, err = e.expr(i); err == nil && sa > 31 {
				err = errf(e.line, "shift amount %d out of range", sa)
			}
			inst.Shamt = uint8(sa)
		case sTarget:
			var target uint32
			if target, err = e.expr(i); err == nil {
				var ok bool
				if inst.Target, ok = arch.JumpField(e.addr, target); !ok {
					err = errf(e.line, "jump target %#x unreachable from %#x", target, e.addr)
				}
			}
		case sCode:
			if inst.Code, err = e.expr(i); err == nil && inst.Code > 0xfffff {
				err = errf(e.line, "code %#x exceeds 20 bits", inst.Code)
			}
		case sWide:
			wide, err = e.expr(i)
		}
		if err != nil {
			return err
		}
	}
	if m.kind == kLi {
		e.putWord(0, arch.Encode(arch.Inst{Mn: arch.MnLUI, Rt: inst.Rt, Imm: uint16(wide >> 16)}))
		e.putWord(4, arch.Encode(arch.Inst{Mn: arch.MnORI, Rt: inst.Rt, Rs: inst.Rt, Imm: uint16(wide)}))
		return nil
	}
	e.putWord(0, arch.Encode(inst))
	return nil
}
