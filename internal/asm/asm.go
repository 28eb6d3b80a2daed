// Package asm implements an assembler for the simulated machine's ISA
// (internal/arch). It supports labels, constant expressions, the usual
// data directives, and a small set of pseudo-instructions, producing a
// relocated memory image plus a symbol table.
//
// Assembly is a text pass and an assembly step. Parse reads one source
// text once: it scans lines in place, resolves each mnemonic, and turns
// operands into registers, memory operands and compiled expressions.
// AssembleTexts then lays a sequence of parsed texts out as one image:
// pass 1 assigns addresses and defines symbols, pass 2 evaluates
// expressions and encodes, and neither reads operand text again. Line
// numbers continue from one text to the next, so a prelude parsed once
// and shared assembles exactly like the concatenated source.
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
	"fmt"
	"slices"
	"strings"
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

// Assemble assembles source text with the location counter initially at
// origin (overridable by .org).
func Assemble(src string, origin uint32) (*Program, error) {
	return AssembleTexts(origin, Parse(src))
}

// AssembleTexts assembles parsed texts, in order, as one source unit
// with the location counter initially at origin. A text's line numbers
// continue from the end of the one before it.
func AssembleTexts(origin uint32, texts ...*Text) (*Program, error) {
	a, err := assemble(origin, texts)
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
	return AssembleTextsWithListing(origin, Parse(src))
}

// AssembleTextsWithListing is AssembleTexts plus the listing.
func AssembleTextsWithListing(origin uint32, texts ...*Text) (*Program, []ListEntry, error) {
	a, err := assemble(origin, texts)
	if err != nil {
		return nil, nil, err
	}
	listing := make([]ListEntry, 0, len(a.placed))
	for _, p := range a.placed {
		s := &a.texts[p.text].stmts[p.stmt]
		text := s.name
		if ops := operandTexts(nil, s.name, s.args); len(ops) > 0 {
			text += " " + strings.Join(ops, ", ")
		}
		listing = append(listing, ListEntry{Line: int(p.line), Addr: p.addr, Size: p.size, Text: text})
	}
	return &Program{Chunks: a.chunks, Symbols: a.syms}, listing, nil
}

// assemble runs pass 1, lays the image out, and runs pass 2.
func assemble(origin uint32, texts []*Text) (*assembler, error) {
	nsyms, nstmts := 0, 0
	for _, t := range texts {
		nsyms += t.nsyms
		nstmts += len(t.stmts)
	}
	a := &assembler{texts: texts, syms: make(map[string]uint32, nsyms), placed: make([]placed, 0, nstmts)}
	if err := a.pass1(origin); err != nil {
		return nil, err
	}
	a.layout()
	return a, a.pass2()
}

type assembler struct {
	texts  []*Text
	syms   map[string]uint32
	placed []placed // statements that occupy the image, in source order
	chunks []Chunk  // the image, laid out after pass 1 and filled by pass 2
}

// placed is one statement pass 1 gave an address,
// texts[text].stmts[stmt]: its window is chunks[chunk].Data[off:off+size].
type placed struct {
	text, stmt int32
	line       int32
	addr, size uint32
	chunk      int32
	off        uint32
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Reservation bounds: images are a few hundred KB at most, so an
// enormous .space/.align (e.g. a negative expression wrapped to a huge
// uint32) is diagnosed instead of materialized.
const (
	maxSpace = 1 << 20 // 1 MB
	maxAlign = 1 << 16 // 64 KB
)

// pass1 defines labels and .equ constants and assigns addresses using
// fixed statement sizes; .org, .equ, .align and .space see the symbols
// defined above them.
func (a *assembler) pass1(origin uint32) error {
	pc := origin
	base := int32(0)
	for ti, t := range a.texts {
		for i := range t.stmts {
			s := &t.stmts[i]
			line := int(base + s.line)
			var size uint32
			switch s.kind {
			case kLabel:
				if err := a.define(line, s.name, pc); err != nil {
					return err
				}
				continue
			case kBad:
				return &Error{Line: line, Msg: s.arg}
			case kIgnored:
				continue
			case kOrg:
				v, err := a.value(t, s, line)
				if err != nil {
					return err
				}
				pc = v
				continue
			case kEqu:
				if _, dup := a.syms[s.arg]; dup {
					return errf(line, "duplicate symbol %q", s.arg)
				}
				v, err := a.value(t, s, line)
				if err != nil {
					return err
				}
				a.syms[s.arg] = v
				continue
			case kWord:
				size = 4 * uint32(s.hi-s.lo)
			case kHalf:
				size = 2 * uint32(s.hi-s.lo)
			case kByte:
				size = uint32(s.hi - s.lo)
			case kAscii:
				size = uint32(len(s.arg))
			case kAsciiz:
				size = uint32(len(s.arg)) + 1
			case kAlign:
				n, err := a.value(t, s, line)
				if err != nil {
					return err
				}
				if n == 0 || n&(n-1) != 0 {
					return errf(line, ".align operand must be a power of two")
				}
				if n > maxAlign {
					return errf(line, ".align %d exceeds maximum %d", n, maxAlign)
				}
				size = (n - pc%n) % n
			case kSpace:
				n, err := a.value(t, s, line)
				if err != nil {
					return err
				}
				// Expressions are uint32, so a negative operand arrives as a
				// huge positive one; either way a multi-megabyte reservation in
				// a simulator image is a source bug, not a layout choice.
				if n > maxSpace {
					return errf(line, ".space %d exceeds maximum %d", n, maxSpace)
				}
				size = n
			case kLi:
				size = 8
			default:
				size = 4
			}
			if uint64(pc)+uint64(size) > 1<<32 {
				return errf(line, "%s at %#x runs past 0xffffffff", s.name, pc)
			}
			if size > 0 || s.kind == kAlign || s.kind == kSpace {
				a.placed = append(a.placed, placed{text: int32(ti), stmt: int32(i), line: int32(line), addr: pc, size: size})
			}
			pc += size
		}
		base += t.lines
	}
	return nil
}

func (a *assembler) define(line int, name string, v uint32) error {
	if _, dup := a.syms[name]; dup {
		return errf(line, "duplicate symbol %q", name)
	}
	a.syms[name] = v
	return nil
}

// value evaluates the last operand of a pass-1 directive.
func (a *assembler) value(t *Text, s *stmt, line int) (uint32, error) {
	v, err := t.eval(t.ops[s.hi-1].expr, a.syms)
	if err != nil {
		return 0, errf(line, "%v", err)
	}
	return v, nil
}

// layout builds the image's chunks once, from pass 1's addresses and
// sizes: statements whose [addr, addr+size) ranges touch or overlap
// share one chunk, chunks ascend by address, and each statement gets
// its window into its chunk. Pass 2 encodes in source order straight
// into those windows, so where statements overlap the later one wins.
func (a *assembler) layout() {
	order := make([]int32, 0, len(a.placed))
	sorted := true
	for i := range a.placed {
		if a.placed[i].size > 0 {
			if n := len(order); n > 0 && a.placed[order[n-1]].addr > a.placed[i].addr {
				sorted = false
			}
			order = append(order, int32(i))
		}
	}
	if !sorted {
		slices.SortFunc(order, func(i, j int32) int { return cmp.Compare(a.placed[i].addr, a.placed[j].addr) })
	}
	end := func(i int32) uint64 { return uint64(a.placed[i].addr) + uint64(a.placed[i].size) }
	for first := 0; first < len(order); {
		lo, hi := a.placed[order[first]].addr, end(order[first])
		next := first + 1
		for ; next < len(order) && uint64(a.placed[order[next]].addr) <= hi; next++ {
			hi = max(hi, end(order[next]))
		}
		for _, i := range order[first:next] {
			p := &a.placed[i]
			p.chunk, p.off = int32(len(a.chunks)), p.addr-lo
		}
		a.chunks = append(a.chunks, Chunk{Addr: lo, Data: make([]byte, hi-uint64(lo))})
		first = next
	}
}

// pass2 encodes every placed statement now that every symbol is known.
func (a *assembler) pass2() error {
	for _, p := range a.placed {
		t := a.texts[p.text]
		s := &t.stmts[p.stmt]
		e := site{syms: a.syms, t: t, s: s, ops: t.ops[s.lo:s.hi], line: int(p.line), addr: p.addr}
		if p.size > 0 {
			e.out = a.chunks[p.chunk].Data[p.off : p.off+p.size : p.off+p.size]
		}
		if err := e.encode(); err != nil {
			return err
		}
	}
	return nil
}
