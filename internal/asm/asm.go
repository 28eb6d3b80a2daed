// Package asm implements a two-pass assembler for the simulated
// machine's ISA (internal/arch). It supports labels, constant
// expressions, the usual data directives, and a small set of
// pseudo-instructions, producing a relocated memory image plus a symbol
// table.
//
// The simulated kernel, the user-mode runtime, and every microbenchmark
// program in this repository are written in this assembly language, so
// that the costs the benchmarks report are measured by executing real
// instruction sequences rather than asserted as constants.
//
// Syntax summary:
//
//	# comment, // comment, ; comment
//	label:                      ; labels may share a line with a statement
//	        .org  0x80000080    ; set location counter
//	        .word expr, expr    ; 32-bit data (also .half, .byte)
//	        .asciiz "text"      ; NUL-terminated string (also .ascii)
//	        .align 4            ; zero-pad to a 4-byte boundary
//	        .space 64           ; reserve zeroed bytes
//	        .equ  name, expr    ; define a constant
//	        addu  v0, a0, a1    ; registers with or without '$'
//	        lw    t0, 8(sp)     ; loads/stores
//	        beq   a0, zero, lab ; branch targets are labels/expressions
//	        li    t0, 0x12345678; pseudo: lui+ori (always 8 bytes)
//	        la    t0, buffer    ; pseudo: lui+ori (always 8 bytes)
//	        mfc0  k0, c0_cause  ; CP0 registers by name or $number
package asm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"uexc/internal/arch"
)

// Chunk is a contiguous span of assembled bytes.
type Chunk struct {
	Addr uint32
	Data []byte
}

// Program is the result of assembling one source unit.
type Program struct {
	Chunks  []Chunk
	Symbols map[string]uint32
}

// Symbol returns the value of a defined symbol.
func (p *Program) Symbol(name string) (uint32, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// MustSymbol returns the value of a symbol that must exist; it panics
// otherwise. It is reserved for labels under the simulator's own
// control (the kernel image and the user runtime prelude, whose
// runtime-critical labels are verified at boot) — a miss is a
// programming error, not an input error. Anything derived from user
// input must use Symbol and handle the miss.
func (p *Program) MustSymbol(name string) uint32 {
	v, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined symbol %q", name))
	}
	return v
}

// Extent returns the lowest address and the total end address of the
// image (end of the highest chunk; chunks ascend).
func (p *Program) Extent() (lo, end uint32) {
	if len(p.Chunks) == 0 {
		return 0, 0
	}
	last := p.Chunks[len(p.Chunks)-1]
	return p.Chunks[0].Addr, last.Addr + uint32(len(last.Data))
}

// Error is an assembly diagnostic carrying the source line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// stmt is one parsed statement awaiting encoding.
type stmt struct {
	line     int
	addr     uint32
	size     uint32
	mnemonic string   // instruction or directive (with '.')
	ops      []string // raw operand texts
	out      []byte   // the statement's size bytes in its chunk (layout)
}

// Assemble assembles source text with the location counter initially at
// origin (overridable by .org).
func Assemble(src string, origin uint32) (*Program, error) {
	a, err := assemble(src, origin)
	if err != nil {
		return nil, err
	}
	return &Program{Chunks: a.chunks, Symbols: a.syms}, nil
}

// ListEntry describes one assembled statement for listings.
type ListEntry struct {
	Line int    // 1-based source line
	Addr uint32 // location-counter value
	Size uint32 // bytes emitted
	Text string // canonical statement text
}

// AssembleWithListing assembles and additionally returns a per-statement
// listing (address, size, and canonical text, in source order).
func AssembleWithListing(src string, origin uint32) (*Program, []ListEntry, error) {
	a, err := assemble(src, origin)
	if err != nil {
		return nil, nil, err
	}
	listing := make([]ListEntry, 0, len(a.stmts))
	for _, st := range a.stmts {
		text := st.mnemonic
		if len(st.ops) > 0 {
			text += " " + strings.Join(st.ops, ", ")
		}
		listing = append(listing, ListEntry{Line: st.line, Addr: st.addr, Size: st.size, Text: text})
	}
	return &Program{Chunks: a.chunks, Symbols: a.syms}, listing, nil
}

// assemble runs pass 1, lays the image out, and runs pass 2.
func assemble(src string, origin uint32) (*assembler, error) {
	a := &assembler{syms: make(map[string]uint32), origin: origin}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	a.layout()
	return a, a.pass2()
}

type assembler struct {
	syms   map[string]uint32
	origin uint32
	stmts  []stmt
	chunks []Chunk // the image, laid out after pass 1 and filled by pass 2
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// pass1 splits lines, defines labels and .equ constants, and assigns
// addresses using fixed statement sizes.
func (a *assembler) pass1(src string) error {
	pc := a.origin
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		// Peel labels (there may be several on one line).
		for {
			trimmed := strings.TrimSpace(line)
			idx := labelSplit(trimmed)
			if idx < 0 {
				line = trimmed
				break
			}
			name := strings.TrimSpace(trimmed[:idx])
			if !validSymbol(name) {
				return errf(lineNo+1, "bad label %q", name)
			}
			if _, dup := a.syms[name]; dup {
				return errf(lineNo+1, "duplicate symbol %q", name)
			}
			a.syms[name] = pc
			line = trimmed[idx+1:]
		}
		if line == "" {
			continue
		}
		mn, ops := splitStmt(line)
		s := stmt{line: lineNo + 1, addr: pc, mnemonic: mn, ops: ops}

		size, err := a.stmtSize(&s, &pc)
		if err != nil {
			return err
		}
		if uint64(pc)+uint64(size) > 1<<32 {
			return errf(s.line, "%s at %#x runs past 0xffffffff", mn, pc)
		}
		s.size = size
		if size > 0 || mn == ".space" || mn == ".align" {
			a.stmts = append(a.stmts, s)
		}
		pc += size
	}
	return nil
}

// Reservation bounds: images are a few hundred KB at most, so an
// enormous .space/.align (e.g. a negative expression wrapped to a huge
// uint32) is diagnosed instead of materialized.
const (
	maxSpace = 1 << 20 // 1 MB
	maxAlign = 1 << 16 // 64 KB
)

// stmtSize returns the byte size of a statement; .org mutates pc
// directly and .equ defines a symbol.
func (a *assembler) stmtSize(s *stmt, pc *uint32) (uint32, error) {
	switch s.mnemonic {
	case ".org":
		if len(s.ops) != 1 {
			return 0, errf(s.line, ".org takes one operand")
		}
		v, err := evalExpr(s.ops[0], a.lookup)
		if err != nil {
			return 0, errf(s.line, "%v", err)
		}
		*pc = v
		return 0, nil
	case ".equ":
		if len(s.ops) != 2 {
			return 0, errf(s.line, ".equ takes name, value")
		}
		name := strings.TrimSpace(s.ops[0])
		if !validSymbol(name) {
			return 0, errf(s.line, "bad .equ name %q", name)
		}
		if _, dup := a.syms[name]; dup {
			return 0, errf(s.line, "duplicate symbol %q", name)
		}
		v, err := evalExpr(s.ops[1], a.lookup)
		if err != nil {
			return 0, errf(s.line, "%v", err)
		}
		a.syms[name] = v
		return 0, nil
	case ".word":
		return 4 * uint32(len(s.ops)), nil
	case ".half":
		return 2 * uint32(len(s.ops)), nil
	case ".byte":
		return uint32(len(s.ops)), nil
	case ".ascii", ".asciiz":
		if len(s.ops) != 1 {
			return 0, errf(s.line, "%s takes one string", s.mnemonic)
		}
		str, err := parseString(s.ops[0])
		if err != nil {
			return 0, errf(s.line, "%v", err)
		}
		n := uint32(len(str))
		if s.mnemonic == ".asciiz" {
			n++
		}
		return n, nil
	case ".align":
		if len(s.ops) != 1 {
			return 0, errf(s.line, ".align takes one operand")
		}
		n, err := evalExpr(s.ops[0], a.lookup)
		if err != nil {
			return 0, errf(s.line, "%v", err)
		}
		if n == 0 || n&(n-1) != 0 {
			return 0, errf(s.line, ".align operand must be a power of two")
		}
		if n > maxAlign {
			return 0, errf(s.line, ".align %d exceeds maximum %d", n, maxAlign)
		}
		pad := (n - *pc%n) % n
		return pad, nil
	case ".space":
		if len(s.ops) != 1 {
			return 0, errf(s.line, ".space takes one operand")
		}
		n, err := evalExpr(s.ops[0], a.lookup)
		if err != nil {
			return 0, errf(s.line, "%v", err)
		}
		// Expressions are uint32, so a negative operand arrives as a
		// huge positive one; either way a multi-megabyte reservation in
		// a simulator image is a source bug, not a layout choice.
		if n > maxSpace {
			return 0, errf(s.line, ".space %d exceeds maximum %d", n, maxSpace)
		}
		return n, nil
	case ".globl", ".global", ".text", ".data", ".set":
		return 0, nil // accepted and ignored
	}
	if strings.HasPrefix(s.mnemonic, ".") {
		return 0, errf(s.line, "unknown directive %s", s.mnemonic)
	}
	// Instructions: fixed sizes; li/la always expand to two words so
	// pass-1 addresses are stable.
	switch s.mnemonic {
	case "li", "la":
		return 8, nil
	}
	if _, ok := arch.ByName[s.mnemonic]; !ok {
		if _, pseudo := pseudoSizes[s.mnemonic]; !pseudo {
			return 0, errf(s.line, "unknown mnemonic %q", s.mnemonic)
		}
	}
	return 4, nil
}

var pseudoSizes = map[string]uint32{
	"nop": 4, "move": 4, "b": 4, "beqz": 4, "bnez": 4, "not": 4, "neg": 4,
}

func (a *assembler) lookup(name string) (uint32, bool) {
	v, ok := a.syms[name]
	return v, ok
}

// putWord stores w little-endian at byte offset off of s's window.
func (s *stmt) putWord(off uint32, w uint32) { binary.LittleEndian.PutUint32(s.out[off:], w) }

// layout builds the image's chunks once, from pass 1's addresses and
// sizes: statements whose [addr, addr+size) ranges touch or overlap
// share one chunk, chunks ascend by address, and each statement gets
// its window into its chunk. Pass 2 encodes in source order straight
// into those windows, so where statements overlap the later one wins.
func (a *assembler) layout() {
	order := make([]int32, 0, len(a.stmts))
	for i := range a.stmts {
		if a.stmts[i].size > 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(i, j int32) int { return cmp.Compare(a.stmts[i].addr, a.stmts[j].addr) })
	end := func(i int32) uint64 { return uint64(a.stmts[i].addr) + uint64(a.stmts[i].size) }
	for first := 0; first < len(order); {
		lo, hi := a.stmts[order[first]].addr, end(order[first])
		next := first + 1
		for ; next < len(order) && uint64(a.stmts[order[next]].addr) <= hi; next++ {
			hi = max(hi, end(order[next]))
		}
		data := make([]byte, hi-uint64(lo))
		for _, i := range order[first:next] {
			s := &a.stmts[i]
			off := s.addr - lo
			s.out = data[off : off+s.size : off+s.size]
		}
		a.chunks = append(a.chunks, Chunk{Addr: lo, Data: data})
		first = next
	}
}

// pass2 encodes all statements now that every symbol is known.
func (a *assembler) pass2() error {
	for i := range a.stmts {
		if err := a.encodeStmt(&a.stmts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) encodeStmt(s *stmt) error {
	switch s.mnemonic {
	case ".word":
		for i, op := range s.ops {
			v, err := evalExpr(op, a.lookup)
			if err != nil {
				return errf(s.line, "%v", err)
			}
			s.putWord(4*uint32(i), v)
		}
		return nil
	case ".half":
		for i, op := range s.ops {
			v, err := evalExpr(op, a.lookup)
			if err != nil {
				return errf(s.line, "%v", err)
			}
			if v > 0xffff {
				return errf(s.line, ".half value %#x too large", v)
			}
			binary.LittleEndian.PutUint16(s.out[2*i:], uint16(v))
		}
		return nil
	case ".byte":
		for i, op := range s.ops {
			v, err := evalExpr(op, a.lookup)
			if err != nil {
				return errf(s.line, "%v", err)
			}
			if v > 0xff {
				return errf(s.line, ".byte value %#x too large", v)
			}
			s.out[i] = byte(v)
		}
		return nil
	case ".ascii", ".asciiz":
		str, err := parseString(s.ops[0])
		if err != nil {
			return errf(s.line, "%v", err)
		}
		copy(s.out, str)
		if s.mnemonic == ".asciiz" {
			s.out[len(str)] = 0
		}
		return nil
	case ".align", ".space":
		// Zero the window: an earlier statement may have written here.
		clear(s.out)
		return nil
	}
	return a.encodeInst(s)
}

// --- line scanning helpers ---

func stripComment(line string) string {
	// Strings can contain comment characters; scan outside quotes.
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch {
		case c == '"':
			inStr = true
		case c == '#' || c == ';':
			return line[:i]
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			return line[:i]
		}
	}
	return line
}

// labelSplit finds the colon ending a leading label, or -1.
func labelSplit(line string) int {
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == ':' {
			return i
		}
		if !isSymChar(c) {
			return -1
		}
	}
	return -1
}

// splitStmt separates mnemonic from comma-separated operands.
func splitStmt(line string) (string, []string) {
	line = strings.TrimSpace(line)
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		return strings.ToLower(line), nil
	}
	mn := strings.ToLower(line[:sp])
	rest := strings.TrimSpace(line[sp+1:])
	if rest == "" {
		return mn, nil
	}
	if mn == ".ascii" || mn == ".asciiz" {
		return mn, []string{rest}
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return mn, parts
}

func parseString(op string) ([]byte, error) {
	op = strings.TrimSpace(op)
	if len(op) < 2 || op[0] != '"' || op[len(op)-1] != '"' {
		return nil, fmt.Errorf("bad string literal %s", op)
	}
	body := op[1 : len(op)-1]
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		if i >= len(body) {
			return nil, fmt.Errorf("dangling escape in %s", op)
		}
		switch body[i] {
		case 'n':
			out = append(out, '\n')
		case 't':
			out = append(out, '\t')
		case '0':
			out = append(out, 0)
		case '\\':
			out = append(out, '\\')
		case '"':
			out = append(out, '"')
		default:
			return nil, fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return out, nil
}

func validSymbol(name string) bool {
	if name == "" || !isSymStart(name[0]) {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !isSymChar(name[i]) {
			return false
		}
	}
	return true
}
