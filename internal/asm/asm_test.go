package asm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"uexc/internal/arch"
)

// words extracts the assembled image as a flat word slice starting at
// the program's lowest address.
func words(t *testing.T, p *Program) []uint32 {
	t.Helper()
	lo, end := p.Extent()
	if (end-lo)%4 != 0 {
		t.Fatalf("image size %d not word multiple", end-lo)
	}
	flat := make([]byte, end-lo)
	for _, c := range p.Chunks {
		copy(flat[c.Addr-lo:], c.Data)
	}
	out := make([]uint32, len(flat)/4)
	for i := range out {
		out[i] = uint32(flat[4*i]) | uint32(flat[4*i+1])<<8 |
			uint32(flat[4*i+2])<<16 | uint32(flat[4*i+3])<<24
	}
	return out
}

func mustAssemble(t *testing.T, src string, origin uint32) *Program {
	t.Helper()
	p, err := Assemble(src, origin)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func TestBasicInstructions(t *testing.T) {
	p := mustAssemble(t, `
		addu v0, a0, a1
		sll  t0, t1, 4
		jr   ra
		syscall
		lw   t0, 8(sp)
		sw   t0, -4(sp)
		lui  t0, 0x8000
		rfe
		tlbwi
		mfc0 k0, c0_cause
		mtc0 k0, $14
		break 3
		hcall 9
	`, 0x1000)
	got := words(t, p)
	want := []uint32{
		arch.Encode(arch.Inst{Mn: arch.MnADDU, Rd: arch.RegV0, Rs: arch.RegA0, Rt: arch.RegA1}),
		arch.Encode(arch.Inst{Mn: arch.MnSLL, Rd: arch.RegT0, Rt: arch.RegT1, Shamt: 4}),
		arch.Encode(arch.Inst{Mn: arch.MnJR, Rs: arch.RegRA}),
		arch.Encode(arch.Inst{Mn: arch.MnSYSCALL}),
		arch.Encode(arch.Inst{Mn: arch.MnLW, Rt: arch.RegT0, Rs: arch.RegSP, Imm: 8}),
		arch.Encode(arch.Inst{Mn: arch.MnSW, Rt: arch.RegT0, Rs: arch.RegSP, Imm: 0xfffc}),
		arch.Encode(arch.Inst{Mn: arch.MnLUI, Rt: arch.RegT0, Imm: 0x8000}),
		arch.Encode(arch.Inst{Mn: arch.MnRFE}),
		arch.Encode(arch.Inst{Mn: arch.MnTLBWI}),
		arch.Encode(arch.Inst{Mn: arch.MnMFC0, Rt: arch.RegK0, C0Reg: arch.C0Cause}),
		arch.Encode(arch.Inst{Mn: arch.MnMTC0, Rt: arch.RegK0, C0Reg: arch.C0EPC}),
		arch.Encode(arch.Inst{Mn: arch.MnBREAK, Code: 3}),
		arch.Encode(arch.Inst{Mn: arch.MnHCALL, Code: 9}),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d words, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d = %#08x (%s), want %#08x (%s)", i,
				got[i], arch.DisassembleWord(got[i], 0),
				want[i], arch.DisassembleWord(want[i], 0))
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x100
top:	addiu t0, t0, 1
		bne  t0, t1, top
		nop
		beq  zero, zero, done
		nop
done:	jr ra
	`, 0)
	got := words(t, p)
	// bne at 0x104 back to 0x100: off = (0x100 - 0x108)/4 = -2
	bne := arch.Decode(got[1])
	if bne.Mn != arch.MnBNE || int16(bne.Imm) != -2 {
		t.Errorf("bne encoded %+v", bne)
	}
	beq := arch.Decode(got[3])
	if beq.Mn != arch.MnBEQ || int16(beq.Imm) != 1 {
		t.Errorf("beq encoded %+v (imm=%d)", beq, int16(beq.Imm))
	}
	if v := p.MustSymbol("done"); v != 0x114 {
		t.Errorf("done = %#x", v)
	}
}

func TestJumpEncoding(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x80000080
		j handler
		nop
handler:
		jal handler
		nop
	`, 0)
	got := words(t, p)
	j := arch.Decode(got[0])
	if j.Mn != arch.MnJ || arch.JumpTarget(0x80000080, j.Target) != 0x80000088 {
		t.Errorf("j decoded %+v target %#x", j, arch.JumpTarget(0x80000080, j.Target))
	}
	jal := arch.Decode(got[2])
	if jal.Mn != arch.MnJAL || arch.JumpTarget(0x80000088, jal.Target) != 0x80000088 {
		t.Errorf("jal decoded %+v", jal)
	}
}

func TestPseudoInstructions(t *testing.T) {
	p := mustAssemble(t, `
		li   t0, 0xdeadbeef
		la   t1, target
		move v0, a0
		not  t2, t3
		neg  t4, t5
		beqz a0, target
		bnez a1, target
		b    target
target:
	`, 0x2000)
	got := words(t, p)
	checks := []struct {
		idx  int
		want arch.Inst
	}{
		{0, arch.Inst{Mn: arch.MnLUI, Rt: arch.RegT0, Imm: 0xdead}},
		{1, arch.Inst{Mn: arch.MnORI, Rt: arch.RegT0, Rs: arch.RegT0, Imm: 0xbeef}},
		{2, arch.Inst{Mn: arch.MnLUI, Rt: arch.RegT1, Imm: 0x0000}},
		{3, arch.Inst{Mn: arch.MnORI, Rt: arch.RegT1, Rs: arch.RegT1, Imm: 0x2028}},
		{4, arch.Inst{Mn: arch.MnADDU, Rd: arch.RegV0, Rs: arch.RegA0}},
		{5, arch.Inst{Mn: arch.MnNOR, Rd: arch.RegT2, Rs: arch.RegT3}},
		{6, arch.Inst{Mn: arch.MnSUBU, Rd: arch.RegT4, Rt: arch.RegT5}},
	}
	for _, c := range checks {
		if d := arch.Decode(got[c.idx]); d != c.want {
			t.Errorf("word %d = %+v, want %+v", c.idx, d, c.want)
		}
	}
	if d := arch.Decode(got[7]); d.Mn != arch.MnBEQ || d.Rs != arch.RegA0 {
		t.Errorf("beqz pseudo = %+v", d)
	}
	if d := arch.Decode(got[9]); d.Mn != arch.MnBEQ || d.Rs != arch.RegZero || d.Imm != 0 {
		t.Errorf("b pseudo = %+v", d)
	}
}

func TestDataDirectives(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x3000
		.equ MAGIC, 0xcafe0000 | 0x42
vals:	.word 1, 2, MAGIC, vals
		.half 0x1234, 0x5678
		.byte 1, 2, 3
		.align 4
aligned:
		.asciiz "hi\n"
		.space 5
end:
	`, 0)
	flatWords := map[uint32]byte{}
	for _, c := range p.Chunks {
		for i, b := range c.Data {
			flatWords[c.Addr+uint32(i)] = b
		}
	}
	wordAt := func(addr uint32) uint32 {
		return uint32(flatWords[addr]) | uint32(flatWords[addr+1])<<8 |
			uint32(flatWords[addr+2])<<16 | uint32(flatWords[addr+3])<<24
	}
	if wordAt(0x3000) != 1 || wordAt(0x3004) != 2 || wordAt(0x3008) != 0xcafe0042 || wordAt(0x300c) != 0x3000 {
		t.Errorf("words = %#x %#x %#x %#x", wordAt(0x3000), wordAt(0x3004), wordAt(0x3008), wordAt(0x300c))
	}
	if p.MustSymbol("aligned") != 0x3000+16+4+3+1 {
		t.Errorf("aligned = %#x", p.MustSymbol("aligned"))
	}
	if p.MustSymbol("end") != p.MustSymbol("aligned")+4+5 {
		t.Errorf("end = %#x", p.MustSymbol("end"))
	}
	// String bytes.
	lo, _ := p.Extent()
	flat := map[uint32]byte{}
	for _, c := range p.Chunks {
		for i, b := range c.Data {
			flat[c.Addr+uint32(i)] = b
		}
	}
	sa := p.MustSymbol("aligned")
	if flat[sa] != 'h' || flat[sa+1] != 'i' || flat[sa+2] != '\n' || flat[sa+3] != 0 {
		t.Errorf("asciiz bytes wrong at %#x (lo=%#x)", sa, lo)
	}
}

func TestCommentsAndLabelsOnOneLine(t *testing.T) {
	p := mustAssemble(t, `
start:	nop # comment with , and (
		nop ; another
		nop // third
x: y:	nop
	`, 0x500)
	if p.MustSymbol("start") != 0x500 {
		t.Error("start mislabeled")
	}
	if p.MustSymbol("x") != 0x50c || p.MustSymbol("y") != 0x50c {
		t.Errorf("x=%#x y=%#x", p.MustSymbol("x"), p.MustSymbol("y"))
	}
}

// errorCases are sources each of which must fail to assemble at origin
// 0; errors.golden pins their exact diagnostics.
var errorCases = []string{
	"addu v0, a0",            // wrong arity
	"bogus t0, t1",           // unknown mnemonic
	"addu q9, a0, a1",        // bad register
	"lw t0, 8[sp]",           // bad mem operand
	".word undefinedsym",     // undefined symbol
	"x: nop\nx: nop",         // duplicate label
	".equ 9bad, 5",           // bad equ name
	"beq a0, a1, 0x01000000", // unencodable branch (far)
	"j 0x90000000",           // unreachable jump from 0
	".align 3",               // non power of two
	"sll t0, t1, 32",         // shift out of range
	`.asciiz "unterminated`,  // bad string
}

func TestErrors(t *testing.T) {
	for _, src := range errorCases {
		if _, err := Assemble(src, 0); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("Assemble(%q) error type %T", src, err)
		}
	}
}

func TestErrorCarriesLine(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus\n", 0)
	ae, ok := err.(*Error)
	if !ok || ae.Line != 3 {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(ae.Error(), "line 3") {
		t.Errorf("Error() = %q", ae.Error())
	}
}

// TestDisasmRoundTrip property: for every mnemonic, assemble the
// disassembly of a random valid instruction and get the same word back.
func TestDisasmRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pc := uint32(0x4000)
	for name, mn := range arch.ByName {
		for trial := 0; trial < 32; trial++ {
			inst := arch.Inst{
				Mn:    mn,
				Rs:    arch.Reg(rng.Intn(32)),
				Rt:    arch.Reg(rng.Intn(32)),
				Rd:    arch.Reg(rng.Intn(32)),
				Shamt: uint8(rng.Intn(32)),
				Imm:   uint16(rng.Intn(0x100)), // keep branches in range
				Code:  uint32(rng.Intn(1 << 20)),
				C0Reg: uint8(rng.Intn(32)),
			}
			if tf, ok := arch.JumpField(pc, pc+uint32(rng.Intn(64))*4); ok {
				inst.Target = tf
			}
			// Normalize via decode(encode()) to zero unused fields.
			norm := arch.Decode(arch.Encode(inst))
			if norm.Mn != mn {
				continue // fields aliased into another form; skip
			}
			text := arch.Disassemble(norm, pc)
			p, err := Assemble("\t.org 0x4000\n\t"+text+"\n", 0)
			if err != nil {
				t.Fatalf("%s: cannot assemble %q: %v", name, text, err)
			}
			got := words(t, p)[0]
			if got != arch.Encode(norm) {
				t.Fatalf("%s: %q assembled to %#08x, want %#08x", name, text, got, arch.Encode(norm))
			}
		}
	}
}

func TestQuickLiMaterializesConstant(t *testing.T) {
	f := func(v uint32) bool {
		p, err := Assemble("\tli t0, "+formatHex(v)+"\n", 0)
		if err != nil {
			return false
		}
		w := words(t, p)
		lui := arch.Decode(w[0])
		ori := arch.Decode(w[1])
		return uint32(lui.Imm)<<16|uint32(ori.Imm) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func formatHex(v uint32) string {
	const digits = "0123456789abcdef"
	out := []byte("0x00000000")
	for i := 0; i < 8; i++ {
		out[9-i] = digits[v>>(4*i)&0xf]
	}
	return string(out)
}

func TestOrgGapsProduceSeparateChunks(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x1000
		.word 1
		.org 0x2000
		.word 2
	`, 0)
	if len(p.Chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(p.Chunks))
	}
	if p.Chunks[0].Addr != 0x1000 || p.Chunks[1].Addr != 0x2000 {
		t.Errorf("chunk addrs %#x %#x", p.Chunks[0].Addr, p.Chunks[1].Addr)
	}
}

func TestListing(t *testing.T) {
	_, listing, err := AssembleWithListing(`
	.org 0x1000
start:	addu v0, a0, a1
	li   t0, 0x12345678
	.word 1, 2
	.asciiz "hi"
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(listing) != 4 {
		t.Fatalf("listing entries = %d, want 4", len(listing))
	}
	checks := []struct {
		addr uint32
		size uint32
		text string
	}{
		{0x1000, 4, "addu v0, a0, a1"},
		{0x1004, 8, "li t0, 0x12345678"},
		{0x100c, 8, ".word 1, 2"},
		{0x1014, 3, ".asciiz \"hi\""},
	}
	for i, c := range checks {
		e := listing[i]
		if e.Addr != c.addr || e.Size != c.size || e.Text != c.text {
			t.Errorf("entry %d = {%#x %d %q}, want {%#x %d %q}",
				i, e.Addr, e.Size, e.Text, c.addr, c.size, c.text)
		}
	}
	// Line numbers ascend and point into the source.
	for i := 1; i < len(listing); i++ {
		if listing[i].Line <= listing[i-1].Line {
			t.Errorf("listing lines not ascending: %v", listing)
		}
	}
}
