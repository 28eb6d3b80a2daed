package tlb

import (
	"testing"
	"testing/quick"
)

func TestEntryFieldAccessors(t *testing.T) {
	e := Entry{Hi: MakeHi(0x12345, 17), Lo: MakeLo(0x00abc, LoV|LoD|LoU)}
	if e.VPN() != 0x12345 {
		t.Errorf("VPN = %#x", e.VPN())
	}
	if e.ASID() != 17 {
		t.Errorf("ASID = %d", e.ASID())
	}
	if e.PFN() != 0xabc {
		t.Errorf("PFN = %#x", e.PFN())
	}
	if !e.Valid() || !e.Writable() || !e.UserModifiable() || e.Global() {
		t.Errorf("flags wrong: %+v", e)
	}
}

func TestLookupAfterWriteFinds(t *testing.T) {
	f := func(vpnRaw uint32, asid uint8, idx uint8) bool {
		var tl TLB
		vpn := vpnRaw & 0xfffff
		asid &= 63
		e := Entry{Hi: MakeHi(vpn, asid), Lo: MakeLo(vpn+1, LoV)}
		tl.WriteIndexed(int(idx), e)
		got, gi, ok := tl.Lookup(vpn<<12|0x123, asid)
		return ok && gi == int(idx&63) && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestASIDMismatchMissesUnlessGlobal(t *testing.T) {
	f := func(vpnRaw uint32, a1, a2 uint8, global bool) bool {
		vpn := vpnRaw & 0xfffff
		a1 &= 63
		a2 &= 63
		if a1 == a2 {
			a2 = (a1 + 1) & 63
		}
		var tl TLB
		flags := LoV
		if global {
			flags |= LoG
		}
		tl.WriteIndexed(0, Entry{Hi: MakeHi(vpn, a1), Lo: MakeLo(99, flags)})
		_, _, ok := tl.Lookup(vpn<<12, a2)
		return ok == global
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProbeAgreesWithLookup(t *testing.T) {
	f := func(vpnRaw uint32, asid uint8, idx uint8, present bool) bool {
		vpn := vpnRaw & 0xfffff
		asid &= 63
		var tl TLB
		if present {
			tl.WriteIndexed(int(idx), Entry{Hi: MakeHi(vpn, asid), Lo: MakeLo(5, LoV)})
		}
		pi, pok := tl.Probe(MakeHi(vpn, asid))
		_, li, lok := tl.Lookup(vpn<<12, asid)
		return pok == lok && (!pok || pi == li)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRandomNeverVictimizesWired(t *testing.T) {
	var tl TLB
	for i := 0; i < 10000; i++ {
		v := tl.WriteRandom(Entry{Hi: MakeHi(uint32(i)&0xfffff, 0), Lo: LoV})
		if v < Wired || v >= Entries {
			t.Fatalf("random victim %d out of [%d, %d)", v, Wired, Entries)
		}
	}
	// All non-wired slots should eventually be chosen.
	seen := map[int]bool{}
	tl = TLB{}
	for i := 0; i < 20000 && len(seen) < Entries-Wired; i++ {
		seen[tl.WriteRandom(Entry{Lo: LoV, Hi: 4096})] = true
	}
	if len(seen) != Entries-Wired {
		t.Errorf("random replacement reached only %d of %d slots", len(seen), Entries-Wired)
	}
}

func TestRandomPreviewMatchesWrite(t *testing.T) {
	var tl TLB
	for i := 0; i < 100; i++ {
		want := tl.Random()
		got := tl.WriteRandom(Entry{Hi: 4096, Lo: LoV})
		if got != want {
			t.Fatalf("Random() preview %d != WriteRandom victim %d", want, got)
		}
	}
}

func TestInvalidateASID(t *testing.T) {
	var tl TLB
	tl.WriteIndexed(0, Entry{Hi: MakeHi(1, 5), Lo: MakeLo(1, LoV)})
	tl.WriteIndexed(1, Entry{Hi: MakeHi(2, 6), Lo: MakeLo(2, LoV)})
	tl.WriteIndexed(2, Entry{Hi: MakeHi(3, 5), Lo: MakeLo(3, LoV|LoG)})
	tl.InvalidateASID(5)
	if tl.Read(0).Valid() {
		t.Error("asid-5 entry still valid")
	}
	if !tl.Read(1).Valid() {
		t.Error("asid-6 entry was invalidated")
	}
	if !tl.Read(2).Valid() {
		t.Error("global entry was invalidated")
	}
}

func TestInvalidatePage(t *testing.T) {
	var tl TLB
	tl.WriteIndexed(0, Entry{Hi: MakeHi(7, 1), Lo: MakeLo(9, LoV)})
	if !tl.InvalidatePage(7, 1) {
		t.Fatal("InvalidatePage missed existing entry")
	}
	if _, _, ok := tl.Lookup(7<<12, 1); ok {
		t.Error("entry survived InvalidatePage")
	}
	if tl.InvalidatePage(7, 1) {
		t.Error("second InvalidatePage reported a drop")
	}
}

func TestUpdateProtection(t *testing.T) {
	var tl TLB
	tl.WriteIndexed(3, Entry{Hi: MakeHi(1, 0), Lo: MakeLo(2, LoV|LoU)})
	tl.UpdateProtection(3, true, true)
	e := tl.Read(3)
	if !e.Writable() || !e.Valid() {
		t.Errorf("after amplify: %+v", e)
	}
	if !e.UserModifiable() || e.PFN() != 2 {
		t.Errorf("UpdateProtection disturbed U/PFN: %+v", e)
	}
	tl.UpdateProtection(3, false, true)
	if tl.Read(3).Writable() {
		t.Error("restrict did not clear D")
	}
	tl.UpdateProtection(3, false, false)
	if tl.Read(3).Valid() {
		t.Error("restrict did not clear V")
	}
}

func TestHitMissCounters(t *testing.T) {
	var tl TLB
	tl.WriteIndexed(0, Entry{Hi: MakeHi(1, 0), Lo: MakeLo(1, LoV)})
	tl.Lookup(1<<12, 0)
	tl.Lookup(2<<12, 0)
	tl.Lookup(1<<12, 0)
	if tl.Hits != 2 || tl.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", tl.Hits, tl.Misses)
	}
}

func TestVPNZeroWithNonzeroLoIsMatchable(t *testing.T) {
	// Page 0 must be mappable: the empty-slot check is (Hi==0 && Lo==0).
	var tl TLB
	tl.WriteIndexed(0, Entry{Hi: MakeHi(0, 0), Lo: MakeLo(4, LoV)})
	e, _, ok := tl.Lookup(0x0ff, 0)
	if !ok || e.PFN() != 4 {
		t.Fatalf("page 0 lookup = %+v ok=%v", e, ok)
	}
}

func TestVPNZeroGlobalEntryHits(t *testing.T) {
	// Regression for the VPN-indexed lookup: an entry whose Hi word is
	// entirely zero (VPN 0, ASID 0) with all its state in Lo flags is a
	// live entry, and the G bit must make it hit under any ASID. A
	// lookup path that conflated "Hi == 0" with "empty slot" would drop
	// it from the index.
	var tl TLB
	tl.WriteIndexed(2, Entry{Hi: 0, Lo: MakeLo(7, LoV|LoG)})
	for _, asid := range []uint8{0, 1, 63} {
		e, idx, ok := tl.Lookup(0x0a0, asid)
		if !ok || idx != 2 || e.PFN() != 7 {
			t.Fatalf("asid %d: lookup = (%+v, %d, %v), want hit at slot 2 pfn 7", asid, e, idx, ok)
		}
	}
	if tl.Hits != 3 || tl.Misses != 0 {
		t.Errorf("hits=%d misses=%d, want 3/0", tl.Hits, tl.Misses)
	}
}

func TestLookupMatchOrderIsLinearScan(t *testing.T) {
	// Two live entries for the same VPN: the indexed lookup must serve
	// the lowest slot, exactly like the architectural linear scan, and
	// fall to the next slot when the first is dropped.
	var tl TLB
	tl.WriteIndexed(5, Entry{Hi: MakeHi(3, 0), Lo: MakeLo(50, LoV)})
	tl.WriteIndexed(9, Entry{Hi: MakeHi(3, 0), Lo: MakeLo(90, LoV)})
	if e, idx, ok := tl.Lookup(3<<12, 0); !ok || idx != 5 || e.PFN() != 50 {
		t.Fatalf("lookup = (%+v, %d, %v), want slot 5", e, idx, ok)
	}
	tl.WriteIndexed(5, Entry{})
	if e, idx, ok := tl.Lookup(3<<12, 0); !ok || idx != 9 || e.PFN() != 90 {
		t.Fatalf("after drop: lookup = (%+v, %d, %v), want slot 9", e, idx, ok)
	}
}

func TestLookupMemoStalenessAcrossMutators(t *testing.T) {
	// The direct-mapped memo in front of the VPN index must go stale on
	// every mutator, including ones that touch other VPNs (the memo is
	// generation-gated, not entry-gated).
	var tl TLB
	tl.WriteIndexed(0, Entry{Hi: MakeHi(4, 0), Lo: MakeLo(40, LoV)})
	mutate := []struct {
		name string
		do   func()
	}{
		{"WriteIndexed", func() { tl.WriteIndexed(1, Entry{Hi: MakeHi(9, 0), Lo: MakeLo(9, LoV)}) }},
		{"WriteRandom", func() { tl.WriteRandom(Entry{Hi: MakeHi(10, 0), Lo: MakeLo(10, LoV)}) }},
		{"FlipBits", func() { tl.FlipBits(0, 0, LoD) }},
		{"UpdateProtection", func() { tl.UpdateProtection(0, true, true) }},
		{"InvalidateASID", func() {
			tl.WriteIndexed(2, Entry{Hi: MakeHi(20, 5), Lo: MakeLo(20, LoV)})
			tl.InvalidateASID(5)
		}},
		{"InvalidatePage", func() { tl.InvalidatePage(9, 0) }},
	}
	for _, m := range mutate {
		if _, _, ok := tl.Lookup(4<<12, 0); !ok {
			t.Fatalf("%s: warm-up lookup missed", m.name)
		}
		gen := tl.Gen()
		m.do()
		if tl.Gen() == gen {
			t.Fatalf("%s did not advance Gen", m.name)
		}
		if _, _, ok := tl.Lookup(4<<12, 0); !ok {
			t.Fatalf("%s: vpn 4 lookup missed after unrelated mutation", m.name)
		}
	}
	// Now mutate the entry the memo is holding and check the result moves.
	tl.WriteIndexed(0, Entry{Hi: MakeHi(4, 0), Lo: MakeLo(44, LoV)})
	if e, _, ok := tl.Lookup(4<<12, 0); !ok || e.PFN() != 44 {
		t.Fatalf("memo served stale entry: %+v ok=%v", e, ok)
	}
	tl.InvalidatePage(4, 0)
	if _, _, ok := tl.Lookup(4<<12, 0); ok {
		t.Fatal("memo served dropped entry")
	}
}
