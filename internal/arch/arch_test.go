package arch

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		RegZero: "zero", RegAT: "at", RegV0: "v0", RegA0: "a0",
		RegT0: "t0", RegS0: "s0", RegK0: "k0", RegGP: "gp",
		RegSP: "sp", RegFP: "fp", RegRA: "ra",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
	if got := Reg(40).String(); !strings.Contains(got, "?") {
		t.Errorf("out-of-range reg rendered as %q, want marker", got)
	}
}

func TestByNameCoversAllMnemonics(t *testing.T) {
	if len(ByName) != int(mnCount)-1 {
		t.Fatalf("ByName has %d entries, want %d", len(ByName), mnCount-1)
	}
	for name, m := range ByName {
		if m.Name() != name {
			t.Errorf("ByName[%q] = %v whose Name() = %q", name, m, m.Name())
		}
	}
}

// sanitize clamps Inst fields to what the mnemonic's format can encode so
// that encode/decode round trips are meaningful.
func sanitize(i Inst) Inst {
	i.Rs &= 31
	i.Rt &= 31
	i.Rd &= 31
	i.Shamt &= 31
	i.Code &= 0xfffff
	i.Target &= 0x3ffffff
	i.C0Reg &= 31
	s := specs[i.Mn]
	out := Inst{Mn: i.Mn}
	switch s.fmt {
	case FmtNone:
	case FmtRdRsRt:
		out.Rd, out.Rs, out.Rt = i.Rd, i.Rs, i.Rt
	case FmtRdRtSa:
		out.Rd, out.Rt, out.Shamt = i.Rd, i.Rt, i.Shamt
	case FmtRdRtRs:
		out.Rd, out.Rt, out.Rs = i.Rd, i.Rt, i.Rs
	case FmtRs:
		out.Rs = i.Rs
	case FmtRdRs:
		out.Rd, out.Rs = i.Rd, i.Rs
	case FmtRd:
		out.Rd = i.Rd
	case FmtRsRt:
		out.Rs, out.Rt = i.Rs, i.Rt
	case FmtRtRsImm, FmtRsRtOff:
		out.Rs, out.Rt, out.Imm = i.Rs, i.Rt, i.Imm
	case FmtRtImm:
		out.Rt, out.Imm = i.Rt, i.Imm
	case FmtRsOff:
		out.Rs, out.Imm = i.Rs, i.Imm
	case FmtRtOffBase:
		out.Rt, out.Rs, out.Imm = i.Rt, i.Rs, i.Imm
	case FmtTarget:
		out.Target = i.Target
	case FmtCode:
		out.Code = i.Code
	case FmtRtC0:
		out.Rt, out.C0Reg = i.Rt, i.C0Reg
	}
	return out
}

func TestEncodeDecodeRoundTripAllMnemonics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for m := Mn(1); m < mnCount; m++ {
		for trial := 0; trial < 64; trial++ {
			in := sanitize(Inst{
				Mn:     m,
				Rs:     Reg(rng.Intn(32)),
				Rt:     Reg(rng.Intn(32)),
				Rd:     Reg(rng.Intn(32)),
				Shamt:  uint8(rng.Intn(32)),
				Imm:    uint16(rng.Uint32()),
				Target: rng.Uint32(),
				Code:   rng.Uint32(),
				C0Reg:  uint8(rng.Intn(32)),
			})
			got := Decode(Encode(in))
			if got != in {
				t.Fatalf("%s: decode(encode(%+v)) = %+v", m.Name(), in, got)
			}
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(mraw uint8, rs, rt, rd, sh uint8, imm uint16, tgt, code uint32, c0 uint8) bool {
		m := Mn(mraw%uint8(mnCount-1)) + 1
		in := sanitize(Inst{
			Mn: m, Rs: Reg(rs), Rt: Reg(rt), Rd: Reg(rd), Shamt: sh,
			Imm: imm, Target: tgt, Code: code, C0Reg: c0,
		})
		return Decode(Encode(in)) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInvalidWords(t *testing.T) {
	bad := []uint32{
		0x00000001,      // SPECIAL funct 1 (unassigned)
		0x70000000 | 63, // SPECIAL2 funct 63
		0x04180000,      // REGIMM rt=24
		0x42000003,      // COP0 CO funct 3
		0xfc000000,      // opcode 63
		0x48000000,      // COP2
	}
	for _, w := range bad {
		if got := Decode(w); got.Mn != MnInvalid {
			t.Errorf("Decode(%#x) = %v, want invalid", w, got.Mn)
		}
	}
}

func TestDecodeKnownEncodings(t *testing.T) {
	// Hand-checked against the MIPS R3000 manual encodings.
	cases := []struct {
		w    uint32
		want Inst
	}{
		{0x00000000, Inst{Mn: MnSLL}},                                      // nop
		{0x03e00008, Inst{Mn: MnJR, Rs: RegRA}},                            // jr ra
		{0x0000000c, Inst{Mn: MnSYSCALL}},                                  // syscall
		{0x27bdffe0, Inst{Mn: MnADDIU, Rt: RegSP, Rs: RegSP, Imm: 0xffe0}}, // addiu sp, sp, -32
		{0x8fbf001c, Inst{Mn: MnLW, Rt: RegRA, Rs: RegSP, Imm: 0x001c}},    // lw ra, 28(sp)
		{0x3c08dead, Inst{Mn: MnLUI, Rt: RegT0, Imm: 0xdead}},              // lui t0, 0xdead
		{0x42000010, Inst{Mn: MnRFE}},
		{0x42000002, Inst{Mn: MnTLBWI}},
		{0x40086000, Inst{Mn: MnMFC0, Rt: RegT0, C0Reg: C0Status}},
		{0x40886800, Inst{Mn: MnMTC0, Rt: RegT0, C0Reg: C0Cause}},
	}
	for _, c := range cases {
		if got := Decode(c.w); got != c.want {
			t.Errorf("Decode(%#08x) = %+v, want %+v", c.w, got, c.want)
		}
	}
}

func TestBranchTargetRoundTrip(t *testing.T) {
	f := func(pcRaw uint32, d int16) bool {
		pc := pcRaw &^ 3
		target := BranchTarget(pc, uint16(d))
		off, ok := BranchOffset(pc, target)
		return ok && off == uint16(d)
	}
	// The signed and unsigned wrap points, drawn every time: quick's
	// random pcs almost never land next to them.
	for _, pc := range []uint32{0x7FFFFFFC, 0x80000000, 0xFFFFFFFC} {
		for _, d := range []int16{-32768, -1, 0, 1, 32767} {
			if !f(pc, d) {
				t.Errorf("pc %#x displacement %d does not round-trip", pc, d)
			}
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBranchOffsetAcrossWrap: branches whose displacement crosses the
// signed (0x80000000) or unsigned (0x100000000) wrap point encode, and
// the field decodes back to the same target.
func TestBranchOffsetAcrossWrap(t *testing.T) {
	cases := []struct{ pc, target uint32 }{
		{0x7FFFFFF0, 0x80000004},
		{0x7FFFFFF0, 0x7FFFFFF0 + 4 + 32767<<2},
		{0x7FFFFFFC, 0x7FFFFFF0}, // backward; pc+4 passes 0x80000000
		{0x80000000, 0x7FFFFFF0},
		{0xFFFFFFF8, 0x0},
	}
	for _, c := range cases {
		off, ok := BranchOffset(c.pc, c.target)
		if !ok {
			t.Errorf("BranchOffset(%#x, %#x) refused", c.pc, c.target)
			continue
		}
		if got := BranchTarget(c.pc, off); got != c.target {
			t.Errorf("BranchOffset(%#x, %#x) = %#x, which decodes to %#x", c.pc, c.target, off, got)
		}
	}
}

func TestBranchOffsetRejectsFar(t *testing.T) {
	if _, ok := BranchOffset(0x1000, 0x1000+4+(40000<<2)); ok {
		t.Error("BranchOffset accepted out-of-range displacement")
	}
	if _, ok := BranchOffset(0x1000, 0x1001); ok {
		t.Error("BranchOffset accepted unaligned target")
	}
}

func TestJumpFieldRoundTrip(t *testing.T) {
	f := func(pcRaw, tRaw uint32) bool {
		pc := pcRaw &^ 3
		// Force target into pc's region.
		target := (pc+4)&0xf0000000 | (tRaw &^ 3 & 0x0ffffffc)
		fld, ok := JumpField(pc, target)
		return ok && JumpTarget(pc, fld) == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := JumpField(0x00001000, 0x80001000); ok {
		t.Error("JumpField accepted cross-region target")
	}
}

func TestDisassembleForms(t *testing.T) {
	cases := []struct {
		i    Inst
		pc   uint32
		want string
	}{
		{Inst{Mn: MnADDU, Rd: RegV0, Rs: RegA0, Rt: RegA1}, 0, "addu v0, a0, a1"},
		{Inst{Mn: MnSLL, Rd: RegT0, Rt: RegT1, Shamt: 4}, 0, "sll t0, t1, 4"},
		{Inst{Mn: MnJR, Rs: RegRA}, 0, "jr ra"},
		{Inst{Mn: MnLW, Rt: RegT0, Rs: RegSP, Imm: 0xfffc}, 0, "lw t0, -4(sp)"},
		{Inst{Mn: MnBEQ, Rs: RegA0, Rt: RegZero, Imm: 3}, 0x100, "beq a0, zero, 0x110"},
		{Inst{Mn: MnJ, Target: 0x80000080 >> 2 & 0x3ffffff}, 0x80000000, "j 0x80000080"},
		{Inst{Mn: MnMTC0, Rt: RegK0, C0Reg: C0EPC}, 0, "mtc0 k0, c0_epc"},
		{Inst{Mn: MnRFE}, 0, "rfe"},
		{Inst{Mn: MnHCALL, Code: 7}, 0, "hcall 7"},
		{Inst{Mn: MnSYSCALL}, 0, "syscall"},
		{Inst{Mn: MnLUI, Rt: RegT0, Imm: 0x8000}, 0, "lui t0, 0x8000"},
	}
	for _, c := range cases {
		if got := Disassemble(c.i, c.pc); got != c.want {
			t.Errorf("Disassemble(%+v) = %q, want %q", c.i, got, c.want)
		}
	}
}

func TestDisassembleWordInvalid(t *testing.T) {
	if got := DisassembleWord(0xffffffff, 0); got != ".word 0xffffffff" {
		t.Errorf("invalid word rendered %q", got)
	}
}

func TestExcName(t *testing.T) {
	if ExcName(ExcMod) != "Mod" || ExcName(ExcBp) != "Bp" || ExcName(ExcAdEL) != "AdEL" {
		t.Error("ExcName mismatch for known codes")
	}
	if ExcName(31) != "Exc31" {
		t.Errorf("ExcName(31) = %q", ExcName(31))
	}
}

func TestSegmentPredicates(t *testing.T) {
	if !InKUSeg(0) || !InKUSeg(0x7fffffff) || InKUSeg(0x80000000) {
		t.Error("InKUSeg boundaries wrong")
	}
	if !InKSeg0(0x80000000) || !InKSeg0(0x9fffffff) || InKSeg0(0xa0000000) {
		t.Error("InKSeg0 boundaries wrong")
	}
	if !InKSeg1(0xa0000000) || !InKSeg1(0xbfffffff) || InKSeg1(0xc0000000) {
		t.Error("InKSeg1 boundaries wrong")
	}
	if KSegPhys(0x80001234) != 0x1234 || KSegPhys(0xa0005678) != 0x5678 {
		t.Error("KSegPhys mapping wrong")
	}
}

func TestIsBranchLoadStore(t *testing.T) {
	if !(Inst{Mn: MnBEQ}).IsBranch() || !(Inst{Mn: MnJAL}).IsBranch() || !(Inst{Mn: MnJR}).IsBranch() {
		t.Error("IsBranch false negatives")
	}
	if (Inst{Mn: MnADDU}).IsBranch() || (Inst{Mn: MnSYSCALL}).IsBranch() {
		t.Error("IsBranch false positives")
	}
	if !(Inst{Mn: MnLW}).IsLoad() || !(Inst{Mn: MnLBU}).IsLoad() || (Inst{Mn: MnSW}).IsLoad() {
		t.Error("IsLoad wrong")
	}
	if !(Inst{Mn: MnSW}).IsStore() || !(Inst{Mn: MnSWR}).IsStore() || (Inst{Mn: MnLW}).IsStore() {
		t.Error("IsStore wrong")
	}
}
