package asm

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"strings"
	"sync/atomic"

	"uexc/internal/arch"
)

// Text is one source text after the text pass: its statements in
// source order, each mnemonic resolved to a directive, pseudo-op or
// instruction, and each operand turned into a register, a memory
// operand or a compiled expression. Parse is a pure function of the
// source — it assigns no addresses and reads no symbol values — and a
// Text is immutable, so one Text (the user runtime prelude, say) is
// shared by every assembly that includes it.
type Text struct {
	stmts []stmt
	ops   []operand // every statement's operands, in order
	code  []exprOp  // every expression, compiled to postfix
	names []string  // the symbol names and diagnostics code refers to
	lines int32     // newlines in the source: the next text's line offset
	nsyms int       // labels and .equ names, to size the symbol table
}

// stmt is one label or statement of a Text.
type stmt struct {
	line   int32 // 1-based line within its text
	kind   kind
	lo, hi int32     // operands: Text.ops[lo:hi]
	m      *mnemonic // kNop, kLi, kInst
	name   string    // the mnemonic, lower-cased; a label's name
	args   string    // the operand text as written, for listings
	arg    string    // kBad: the diagnostic; .equ: the name; .ascii/.asciiz: the bytes
}

// kind classifies a stmt.
type kind uint8

const (
	kLabel   kind = iota
	kBad          // an error pass 1 reports when it reaches the statement
	kIgnored      // .globl, .global, .text, .data, .set
	kOrg
	kEqu
	kWord
	kHalf
	kByte
	kAscii
	kAsciiz
	kAlign
	kSpace
	kNop
	kLi   // li and la: always lui+ori, so pass-1 sizes are stable
	kInst // a machine instruction, or a pseudo-instruction that encodes as one
)

// operand is one resolved operand. Which fields hold depends on the
// slot its position fills: a register (reg), a CP0 register (reg), an
// expression (expr), or a memory operand (reg is the base, expr the
// offset; an empty offset is zero). An operand its slot cannot resolve
// is bad: its expr is the one opErr holding the diagnostic pass 2
// reports in its turn.
type operand struct {
	expr exprRef
	reg  arch.Reg
	bad  bool
}

// slot is what an operand position fills, and so how the text pass
// resolves it and how pass 2 checks and encodes it.
type slot uint8

const (
	sNone slot = iota // not evaluated: .equ's name, or past the arity pass 2 rejects
	sExpr             // a directive's value
	sRd               // register fields
	sRs
	sRt
	sC0     // CP0 register
	sShamt  // 0..31
	sImm    // signed or unsigned 16-bit immediate
	sMem    // off(base): base in rs, offset in imm
	sBranch // branch target, encoded as an offset from the branch
	sTarget // jump target within the 256 MB region
	sCode   // 20-bit trap code
	sWide   // li/la's 32-bit value
)

// mnemonic is what a lower-cased mnemonic resolves to.
type mnemonic struct {
	kind     kind
	mn       arch.Mn // the machine instruction it encodes as
	slots    []slot  // what each operand fills, in order
	optional bool    // the first slot may be omitted: jalr's rd (then ra), a trap's code
	variadic bool    // .word, .half, .byte: any number of sExpr
}

// slot returns what operand i of n fills.
func (m *mnemonic) slot(i, n int) slot {
	if m.variadic {
		return sExpr
	}
	if m.optional && n == len(m.slots)-1 {
		i++
	}
	if i < len(m.slots) {
		return m.slots[i]
	}
	return sNone
}

var mnemonics = func() map[string]*mnemonic {
	formatSlots := map[arch.Format][]slot{
		arch.FmtRdRsRt:    {sRd, sRs, sRt},
		arch.FmtRdRtSa:    {sRd, sRt, sShamt},
		arch.FmtRdRtRs:    {sRd, sRt, sRs},
		arch.FmtRs:        {sRs},
		arch.FmtRdRs:      {sRd, sRs},
		arch.FmtRd:        {sRd},
		arch.FmtRsRt:      {sRs, sRt},
		arch.FmtRtRsImm:   {sRt, sRs, sImm},
		arch.FmtRtImm:     {sRt, sImm},
		arch.FmtRsRtOff:   {sRs, sRt, sBranch},
		arch.FmtRsOff:     {sRs, sBranch},
		arch.FmtRtOffBase: {sRt, sMem},
		arch.FmtTarget:    {sTarget},
		arch.FmtCode:      {sCode},
		arch.FmtRtC0:      {sRt, sC0},
	}
	t := make(map[string]*mnemonic, len(arch.ByName)+32)
	for name, mn := range arch.ByName {
		f := arch.FormatOf(mn)
		t[name] = &mnemonic{kind: kInst, mn: mn, slots: formatSlots[f], optional: f == arch.FmtRdRs || f == arch.FmtCode}
	}
	// Pseudo-instructions shadow any machine mnemonic of the same name.
	li := &mnemonic{kind: kLi, slots: []slot{sRt, sWide}}
	value := []slot{sExpr}
	for name, m := range map[string]*mnemonic{
		"nop":  {kind: kNop},
		"move": {kind: kInst, mn: arch.MnADDU, slots: []slot{sRd, sRs}},
		"not":  {kind: kInst, mn: arch.MnNOR, slots: []slot{sRd, sRs}},
		"neg":  {kind: kInst, mn: arch.MnSUBU, slots: []slot{sRd, sRt}},
		"b":    {kind: kInst, mn: arch.MnBEQ, slots: []slot{sBranch}},
		"beqz": {kind: kInst, mn: arch.MnBEQ, slots: []slot{sRs, sBranch}},
		"bnez": {kind: kInst, mn: arch.MnBNE, slots: []slot{sRs, sBranch}},
		"li":   li, "la": li,
		".org": {kind: kOrg, slots: value}, ".align": {kind: kAlign, slots: value}, ".space": {kind: kSpace, slots: value},
		".equ":  {kind: kEqu, slots: []slot{sNone, sExpr}},
		".word": {kind: kWord, variadic: true}, ".half": {kind: kHalf, variadic: true}, ".byte": {kind: kByte, variadic: true},
		".ascii": {kind: kAscii}, ".asciiz": {kind: kAsciiz},
		".globl": {kind: kIgnored}, ".global": {kind: kIgnored}, ".text": {kind: kIgnored},
		".data": {kind: kIgnored}, ".set": {kind: kIgnored},
	} {
		t[name] = m
	}
	return t
}()

// Parse runs the text pass over src. It never fails: a statement it
// cannot resolve carries its diagnostic, and the assembly step reports
// the first one in the order two passes over the source would meet it.
//
// A line that recurs, in this text or any other, is copied from the
// line memo (lineMemo) instead of parsed again.
func Parse(src string) *Text {
	t := newText(src)
	line := int32(1)
	for rest := src; ; line++ {
		nl := strings.IndexByte(rest, '\n')
		if nl < 0 {
			t.memoLine(line, rest)
			return t
		}
		t.memoLine(line, rest[:nl])
		rest = rest[nl+1:]
	}
}

// newText returns an empty Text sized for src.
func newText(src string) *Text {
	n := strings.Count(src, "\n")
	t := &Text{
		stmts: make([]stmt, 0, n+1),
		ops:   make([]operand, 0, n+strings.Count(src, ",")),
		lines: int32(n),
	}
	t.code = make([]exprOp, 0, cap(t.ops))
	t.names = make([]string, 0, n/2)
	return t
}

// The line memo. A line's parse is a pure function of its text, apart
// from the line number its statements carry, so the memo maps a raw
// line to the one-line Text parseLine makes of it, and a hit splices
// that Text in with its indices relocated and its line patched: the
// result is the Text parseLine would have appended. Generated programs
// repeat most of their lines verbatim, so most lines cost one lookup.
//
// A line is memoised the second time it misses: the first miss only
// notes its hash in memoSeen and parses the line straight into the
// text. So a text read once — the kernel, say, at boot — costs no more
// than without the memo, and lines that never recur never displace
// ones that do.
//
// The memo is process-wide and bounded, because the server assembles
// client text: a fixed table of memoSlots entries, memoWays-way set
// associative by the line's hash. An insert takes a free way of its
// set or evicts one at random, and lines longer than memoMaxLine
// bypass the memo. Eviction is invisible: a miss parses the line as if
// the memo did not exist. Entries are immutable once published, so
// lookups and inserts are single atomic loads and stores, and no
// reader ever takes a lock.
const (
	memoSlots   = 1 << 12
	memoWays    = 4
	memoMaxLine = 128
)

var (
	memoSeed = maphash.MakeSeed()
	lineMemo [memoSlots]memoSlot
	memoSeen [memoSlots]atomic.Uint64 // hashes of lines missed once, direct-mapped
)

// memoSlot is one way of the memo. hash is a hint that spares the
// probe a visit to every entry of the set: it and e are published
// separately, so a lookup trusts only the entry's own hash and key.
type memoSlot struct {
	hash atomic.Uint64
	e    atomic.Pointer[memoEntry]
}

// memoEntry is one memoised line: its hash and text, and its parse.
// The parse's slices start in the entry's own arrays, so a typical
// line's entry is one allocation besides its key.
type memoEntry struct {
	hash uint64
	key  string
	Text
	stmtBuf [2]stmt
	opBuf   [3]operand
	codeBuf [3]exprOp
	nameBuf [2]string
}

// memoLine appends one source line's labels and statement, from the
// memo when it holds the line.
func (t *Text) memoLine(line int32, raw string) {
	if len(raw) > memoMaxLine {
		t.parseLine(line, raw)
		return
	}
	h := maphash.String(memoSeed, raw)
	set := lineMemo[h&(memoSlots-1)&^(memoWays-1):][:memoWays]
	for i := range set {
		if set[i].hash.Load() != h {
			continue
		}
		if e := set[i].e.Load(); e != nil && e.hash == h && e.key == raw {
			t.splice(line, &e.Text)
			return
		}
	}
	if seen := &memoSeen[h&(memoSlots-1)]; seen.Load() != h {
		seen.Store(h)
		t.parseLine(line, raw)
		return
	}
	t.splice(line, &memoize(set, h, raw).Text)
}

// memoize parses raw into an entry of its set and returns the entry.
// The entry is parsed from a clone of raw, so it never keeps the text
// raw came from alive.
func memoize(set []memoSlot, h uint64, raw string) *memoEntry {
	e := &memoEntry{hash: h, key: strings.Clone(raw)}
	e.stmts, e.ops, e.code, e.names = e.stmtBuf[:0], e.opBuf[:0], e.codeBuf[:0], e.nameBuf[:0]
	e.parseLine(0, e.key)
	way := &set[rand.IntN(memoWays)]
	for i := range set {
		if set[i].e.Load() == nil {
			way = &set[i]
			break
		}
	}
	way.e.Store(e)
	way.hash.Store(h)
	return e
}

// splice appends the one-line Text e as line number line of t: its
// operand, code and name indices move past what t already holds.
func (t *Text) splice(line int32, e *Text) {
	opBase, codeBase, nameBase := int32(len(t.ops)), int32(len(t.code)), uint32(len(t.names))
	for _, s := range e.stmts {
		s.line = line
		if s.kind != kLabel && s.kind != kBad { // those hold no operands
			s.lo += opBase
			s.hi += opBase
		}
		t.stmts = append(t.stmts, s)
	}
	for _, op := range e.ops {
		if op.expr.hi > op.expr.lo {
			op.expr.lo += codeBase
			op.expr.hi += codeBase
		}
		t.ops = append(t.ops, op)
	}
	for _, c := range e.code {
		switch c.op {
		case opSym, opErr, opDiv, opMod:
			c.val += nameBase
		}
		t.code = append(t.code, c)
	}
	t.names = append(t.names, e.names...)
	t.nsyms += e.nsyms
}

// parseLine appends one source line's labels and statement.
func (t *Text) parseLine(line int32, raw string) {
	text := stripComment(raw)
	// Peel labels (there may be several on one line).
	for {
		trimmed := strings.TrimSpace(text)
		idx := labelSplit(trimmed)
		if idx < 0 {
			text = trimmed
			break
		}
		name := strings.TrimSpace(trimmed[:idx])
		if !validSymbol(name) {
			t.bad(line, fmt.Sprintf("bad label %q", name))
			return
		}
		t.stmts = append(t.stmts, stmt{line: line, kind: kLabel, name: name})
		t.nsyms++
		text = trimmed[idx+1:]
	}
	if text == "" {
		return
	}
	s := stmt{line: line}
	s.name, s.args = splitMnemonic(text)
	var buf [4]string
	texts := operandTexts(buf[:0], s.name, s.args)

	m, known := mnemonics[s.name]
	switch {
	case !known && strings.HasPrefix(s.name, "."):
		t.bad(line, "unknown directive "+s.name)
		return
	case !known:
		t.bad(line, fmt.Sprintf("unknown mnemonic %q", s.name))
		return
	}
	s.kind, s.m = m.kind, m
	// Operand counts and texts that pass 1 checks are settled here;
	// everything pass 2 checks stays on the operand for its turn.
	switch s.kind {
	case kOrg, kAlign, kSpace:
		if len(texts) != 1 {
			t.bad(line, s.name+" takes one operand")
			return
		}
	case kEqu:
		if len(texts) != 2 {
			t.bad(line, ".equ takes name, value")
			return
		}
		if !validSymbol(texts[0]) {
			t.bad(line, fmt.Sprintf("bad .equ name %q", texts[0]))
			return
		}
		s.arg = texts[0]
		t.nsyms++
	case kAscii, kAsciiz:
		if len(texts) != 1 {
			t.bad(line, s.name+" takes one string")
			return
		}
		str, err := unquote(texts[0])
		if err != nil {
			t.bad(line, err.Error())
			return
		}
		s.arg = str
	}
	s.lo = int32(len(t.ops))
	for i, text := range texts {
		t.ops = append(t.ops, t.resolve(text, m.slot(i, len(texts))))
	}
	s.hi = int32(len(t.ops))
	t.stmts = append(t.stmts, s)
}

// operandTexts appends the trimmed operands of a statement's operand
// text to dst: comma-separated, except that a string directive's is
// one string.
func operandTexts(dst []string, mn, args string) []string {
	if args == "" {
		return dst
	}
	if mn == ".ascii" || mn == ".asciiz" {
		return append(dst, args)
	}
	for {
		comma := strings.IndexByte(args, ',')
		if comma < 0 {
			return append(dst, strings.TrimSpace(args))
		}
		dst = append(dst, strings.TrimSpace(args[:comma]))
		args = args[comma+1:]
	}
}

// bad appends a statement that fails pass 1 with msg.
func (t *Text) bad(line int32, msg string) {
	t.stmts = append(t.stmts, stmt{line: line, kind: kBad, arg: msg})
}

// resolve turns one operand's text into the form its slot takes.
func (t *Text) resolve(text string, sl slot) operand {
	var op operand
	switch sl {
	case sNone:
	case sRd, sRs, sRt:
		reg, ok := regByName(text)
		if !ok {
			return t.badOperand(fmt.Sprintf("bad register %q", text))
		}
		op.reg = reg
	case sC0:
		c0, ok := c0ByName(text)
		if !ok {
			return t.badOperand(fmt.Sprintf("bad cp0 register %q", text))
		}
		op.reg = arch.Reg(c0)
	case sMem:
		// "off(base)", "(base)", or "off" (base = zero).
		open := strings.LastIndexByte(text, '(')
		if open < 0 {
			op.expr = t.compile(text)
			break
		}
		if !strings.HasSuffix(text, ")") {
			return t.badOperand(fmt.Sprintf("bad memory operand %q", text))
		}
		base := text[open+1 : len(text)-1]
		reg, ok := regByName(base)
		if !ok {
			return t.badOperand(fmt.Sprintf("bad register %q", base))
		}
		op.reg = reg
		if off := strings.TrimSpace(text[:open]); off != "" {
			op.expr = t.compile(off)
		}
	default:
		op.expr = t.compile(text)
	}
	return op
}

// badOperand returns an operand whose evaluation reports msg.
func (t *Text) badOperand(msg string) operand {
	lo := int32(len(t.code))
	t.code = append(t.code, exprOp{op: opErr, val: t.name(msg)})
	return operand{expr: exprRef{lo, lo + 1}, bad: true}
}

// name interns s in t.names and returns its index.
func (t *Text) name(s string) uint32 {
	t.names = append(t.names, s)
	return uint32(len(t.names) - 1)
}

// --- line scanning helpers ---

// commentStart marks the bytes stripComment must look at: comment
// starters and the string quote.
var commentStart = [256]bool{'#': true, ';': true, '/': true, '"': true}

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
		if !commentStart[c] {
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

// splitMnemonic separates a trimmed statement's lower-cased mnemonic
// from its trimmed operand text.
func splitMnemonic(line string) (mn, rest string) {
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' || line[i] == '\t' {
			return strings.ToLower(line[:i]), strings.TrimSpace(line[i+1:])
		}
	}
	return strings.ToLower(line), ""
}

// unquote decodes a string literal. A literal without escapes decodes
// to a substring of op.
func unquote(op string) (string, error) {
	op = strings.TrimSpace(op)
	if len(op) < 2 || op[0] != '"' || op[len(op)-1] != '"' {
		return "", fmt.Errorf("bad string literal %s", op)
	}
	body := op[1 : len(op)-1]
	if strings.IndexByte(body, '\\') < 0 {
		return body, nil
	}
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("dangling escape in %s", op)
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
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return string(out), nil
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
