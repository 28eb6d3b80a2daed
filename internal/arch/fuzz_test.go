package arch

import "testing"

// FuzzDecodeEncode checks the decoder against the encoder on arbitrary
// instruction words: Decode must never panic, every decodable word must
// re-encode through EncodeChecked, and the re-encoded word must decode
// to the identical Inst (encode drops only bits the format ignores, so
// decode∘encode must be a fixpoint on decoded instructions).
func FuzzDecodeEncode(f *testing.F) {
	// One representative per encoding class, plus junk-bit variants.
	f.Add(uint32(0x00000000)) // sll zero,zero,0 (canonical nop)
	f.Add(uint32(0x00850018)) // mult a0,a1
	f.Add(uint32(0x0000000c)) // syscall
	f.Add(uint32(0x0000400d)) // break 0x100
	f.Add(uint32(0x04110002)) // bgezal (regimm)
	f.Add(uint32(0x0bffffff)) // j, max target
	f.Add(uint32(0x8c430010)) // lw v1,16(v0)
	f.Add(uint32(0x40046000)) // mfc0 a0,c0_status
	f.Add(uint32(0x42000010)) // rfe
	f.Add(uint32(0x70000001)) // special2 (hcall/xt ops live here)
	f.Add(uint32(0xffffffff)) // undecodable
	f.Add(uint32(0x001fffc0)) // special fn with junk in rs/rt/rd
	f.Fuzz(func(t *testing.T, w uint32) {
		d := Decode(w)
		if d.Mn == MnInvalid {
			return
		}
		if got := Normalize(d); got != d {
			t.Fatalf("Decode(%#x) = %+v not normalized (want %+v)", w, d, got)
		}
		enc, err := EncodeChecked(d)
		if err != nil {
			t.Fatalf("Decode(%#x) = %+v, but EncodeChecked rejects it: %v", w, d, err)
		}
		if rd := Decode(enc); rd != d {
			t.Fatalf("re-decode mismatch: word %#x -> %+v -> word %#x -> %+v", w, d, enc, rd)
		}
	})
}
