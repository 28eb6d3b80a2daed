package asm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Expressions are constant expressions over the symbol table: numbers
// (decimal, 0x hex, 0b binary, 'c' chars), symbols, unary - and ~,
// binary + - * / % << >> & | ^, and parentheses, with conventional
// precedence. The text pass compiles each one to postfix ops in
// Text.code; the assembly step evaluates them once symbols are known.
//
// The ops are emitted in the order a recursive-descent evaluator
// would have done the same work, and a syntax error becomes an opErr
// at the point the parser found it, so evaluation reports the same
// first error — an undefined symbol left of a syntax error wins.

// exprRef is one compiled expression, Text.code[lo:hi]. An empty one
// (a memory operand's missing offset) evaluates to 0.
type exprRef struct{ lo, hi int32 }

// exprOp is one postfix op. For opConst val is the constant; for
// opSym, opErr, opDiv and opMod it indexes Text.names for the symbol's
// name, the diagnostic, or the expression a zero divisor is reported
// in.
type exprOp struct {
	op  byte
	val uint32
}

const (
	opConst byte = iota
	opSym
	opErr
	opNeg
	opNot
	opOr
	opXor
	opAnd
	opShl
	opShr
	opAdd
	opSub
	opMul
	opDiv
	opMod
)

// compiler is the recursive-descent parser of one expression.
type compiler struct {
	t   *Text
	src string
	pos int
}

// compile appends src's postfix ops to t.code. A bare number or symbol
// — most operands — skips the descent.
func (t *Text) compile(src string) exprRef {
	lo := int32(len(t.code))
	c := compiler{t: t, src: src}
	if src != "" && allSymChars(src) {
		c.primary()
	} else if c.binary(0) {
		c.skipSpace()
		if c.pos != len(src) {
			c.fail("trailing %q in expression %q", src[c.pos:], src)
		}
	}
	return exprRef{lo, int32(len(t.code))}
}

func allSymChars(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isSymChar(s[i]) {
			return false
		}
	}
	return true
}

func (c *compiler) emit(op byte, val uint32) {
	c.t.code = append(c.t.code, exprOp{op: op, val: val})
}

// fail emits the syntax error the evaluation reports on reaching it
// and reports false, which ends the compilation.
func (c *compiler) fail(format string, args ...any) bool {
	c.emit(opErr, c.t.name(fmt.Sprintf(format, args...)))
	return false
}

// binaryLevels lists the binary operators by precedence, loosest
// first.
var binaryLevels = [][]struct {
	text string
	op   byte
}{
	{{"|", opOr}},
	{{"^", opXor}},
	{{"&", opAnd}},
	{{"<<", opShl}, {">>", opShr}},
	{{"+", opAdd}, {"-", opSub}},
	{{"*", opMul}, {"/", opDiv}, {"%", opMod}},
}

// peekOp returns the operator of the given level next in the input,
// and its length (0 if none).
func (c *compiler) peekOp(level int) (byte, int) {
	c.skipSpace()
	for _, o := range binaryLevels[level] {
		if strings.HasPrefix(c.src[c.pos:], o.text) {
			return o.op, len(o.text)
		}
	}
	return 0, 0
}

func (c *compiler) binary(level int) bool {
	if level == len(binaryLevels) {
		return c.unary()
	}
	if !c.binary(level + 1) {
		return false
	}
	for {
		op, n := c.peekOp(level)
		if n == 0 {
			return true
		}
		c.pos += n
		if !c.binary(level + 1) {
			return false
		}
		var val uint32
		if op == opDiv || op == opMod {
			val = c.t.name(c.src)
		}
		c.emit(op, val)
	}
}

func (c *compiler) unary() bool {
	c.skipSpace()
	if c.pos < len(c.src) {
		switch c.src[c.pos] {
		case '-':
			c.pos++
			if !c.unary() {
				return false
			}
			c.emit(opNeg, 0)
			return true
		case '~':
			c.pos++
			if !c.unary() {
				return false
			}
			c.emit(opNot, 0)
			return true
		case '+':
			c.pos++
			return c.unary()
		}
	}
	return c.primary()
}

func (c *compiler) primary() bool {
	c.skipSpace()
	if c.pos >= len(c.src) {
		return c.fail("unexpected end of expression %q", c.src)
	}
	ch := c.src[c.pos]
	switch {
	case ch == '(':
		c.pos++
		if !c.binary(0) {
			return false
		}
		c.skipSpace()
		if c.pos >= len(c.src) || c.src[c.pos] != ')' {
			return c.fail("missing ')' in %q", c.src)
		}
		c.pos++
		return true
	case ch == '\'':
		return c.char()
	case ch >= '0' && ch <= '9':
		return c.number()
	case isSymStart(ch):
		start := c.pos
		for c.pos < len(c.src) && isSymChar(c.src[c.pos]) {
			c.pos++
		}
		c.emit(opSym, c.t.name(c.src[start:c.pos]))
		return true
	}
	return c.fail("unexpected %q in expression %q", string(ch), c.src)
}

func (c *compiler) number() bool {
	start := c.pos
	for c.pos < len(c.src) && isSymChar(c.src[c.pos]) {
		c.pos++
	}
	text := c.src[start:c.pos]
	v, err := strconv.ParseUint(text, 0, 64)
	if err != nil {
		return c.fail("bad number %q", text)
	}
	if v > 0xffffffff {
		return c.fail("number %q exceeds 32 bits", text)
	}
	c.emit(opConst, uint32(v))
	return true
}

func (c *compiler) char() bool {
	// 'c' or '\n' style.
	rest := c.src[c.pos:]
	if len(rest) >= 3 && rest[1] != '\\' && rest[2] == '\'' {
		c.pos += 3
		c.emit(opConst, uint32(rest[1]))
		return true
	}
	if len(rest) >= 4 && rest[1] == '\\' && rest[3] == '\'' {
		var v uint32
		switch rest[2] {
		case 'n':
			v = '\n'
		case 't':
			v = '\t'
		case '0':
			v = 0
		case '\\':
			v = '\\'
		case '\'':
			v = '\''
		default:
			return c.fail("bad character literal in %q", c.src)
		}
		c.pos += 4
		c.emit(opConst, v)
		return true
	}
	return c.fail("bad character literal in %q", c.src)
}

func (c *compiler) skipSpace() {
	for c.pos < len(c.src) && (c.src[c.pos] == ' ' || c.src[c.pos] == '\t') {
		c.pos++
	}
}

// eval evaluates a compiled expression. A nil syms admits no symbols.
func (t *Text) eval(e exprRef, syms map[string]uint32) (uint32, error) {
	stack := make([]uint32, 0, 16)
	for _, op := range t.code[e.lo:e.hi] {
		switch op.op {
		case opConst:
			stack = append(stack, op.val)
			continue
		case opSym:
			name := t.names[op.val]
			if syms == nil {
				return 0, fmt.Errorf("symbol %q in constant-only expression", name)
			}
			v, ok := syms[name]
			if !ok {
				return 0, fmt.Errorf("undefined symbol %q", name)
			}
			stack = append(stack, v)
			continue
		case opErr:
			return 0, errors.New(t.names[op.val])
		case opNeg:
			stack[len(stack)-1] = -stack[len(stack)-1]
			continue
		case opNot:
			stack[len(stack)-1] = ^stack[len(stack)-1]
			continue
		}
		right := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		left := &stack[len(stack)-1]
		switch op.op {
		case opOr:
			*left |= right
		case opXor:
			*left ^= right
		case opAnd:
			*left &= right
		case opShl:
			*left <<= right & 31
		case opShr:
			*left >>= right & 31
		case opAdd:
			*left += right
		case opSub:
			*left -= right
		case opMul:
			*left *= right
		case opDiv:
			if right == 0 {
				return 0, fmt.Errorf("division by zero in %q", t.names[op.val])
			}
			*left /= right
		case opMod:
			if right == 0 {
				return 0, fmt.Errorf("modulo by zero in %q", t.names[op.val])
			}
			*left %= right
		}
	}
	if len(stack) == 0 {
		return 0, nil
	}
	return stack[0], nil
}

func isSymStart(c byte) bool {
	return c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isSymChar(c byte) bool {
	return isSymStart(c) || c >= '0' && c <= '9' || c == 'x' || c == 'X'
}
