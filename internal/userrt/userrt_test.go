package userrt

import (
	"testing"

	"uexc/internal/kernel"
)

func TestPreludeAssembles(t *testing.T) {
	p, err := Assemble(`
main:
	li v0, 0
	jr ra
	nop
`)
	if err != nil {
		t.Fatalf("prelude does not assemble: %v", err)
	}
	for _, sym := range []string{
		SymStart, SymMain, SymTrampoline, SymSigHandlerRet,
		SymFexcLow, SymFexcLowRet, SymFexcResume, SymFexcMin,
		SymFexcMinRet, SymFexcCHandler, SymNullHandler, SymSkipHandler,
		SymNullSigHandler, SymSkipSigHandler,
		"__cycles", "__uexc_enable",
	} {
		if _, ok := p.Symbol(sym); !ok {
			t.Errorf("prelude lacks symbol %q", sym)
		}
	}
}

func TestPreludeStartsAtTextBase(t *testing.T) {
	p, err := Assemble("\nmain:\n\tjr ra\n\tnop\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.MustSymbol(SymStart) != kernel.UserTextBase {
		t.Errorf("_start at %#x, want %#x", p.MustSymbol(SymStart), kernel.UserTextBase)
	}
}

func TestFrameOffsetsMatchKernelLayout(t *testing.T) {
	// The restore sequences in the prelude hard-code frame offsets;
	// they must agree with the kernel's layout constants.
	offsets := map[string]uint32{
		"FrEPC": kernel.FrEPC, "FrAT": kernel.FrAT, "FrV0": kernel.FrV0,
		"FrV1": kernel.FrV1, "FrA0": kernel.FrA0, "FrA1": kernel.FrA1,
		"FrA2": kernel.FrA2, "FrA3": kernel.FrA3, "FrT0": kernel.FrT0,
		"FrT1": kernel.FrT1, "FrT2": kernel.FrT2, "FrT3": kernel.FrT3,
		"FrT4": kernel.FrT4, "FrT5": kernel.FrT5, "FrRA": kernel.FrRA,
	}
	want := map[string]uint32{
		"FrEPC": 0x00, "FrAT": 0x0c, "FrV0": 0x10, "FrV1": 0x14,
		"FrA0": 0x18, "FrA1": 0x1c, "FrA2": 0x20, "FrA3": 0x24,
		"FrT0": 0x28, "FrT1": 0x2c, "FrT2": 0x30, "FrT3": 0x34,
		"FrT4": 0x3c, "FrT5": 0x40, "FrRA": 0x44,
	}
	for name, w := range want {
		if offsets[name] != w {
			t.Errorf("%s = %#x, prelude assumes %#x", name, offsets[name], w)
		}
	}
}
