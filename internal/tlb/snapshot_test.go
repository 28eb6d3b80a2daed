package tlb

import "testing"

func TestTLBSnapshotRoundTrip(t *testing.T) {
	tl := &TLB{}
	misses := 0
	tl.InjectMiss = func(uint32, uint8) bool { misses++; return false }
	tl.WriteIndexed(3, Entry{Hi: MakeHi(16, 2), Lo: MakeLo(7, LoV|LoD)})
	tl.WriteIndexed(5, Entry{Hi: MakeHi(17, 2), Lo: MakeLo(8, LoV)})
	if _, _, ok := tl.Lookup(16<<12|0x24, 2); !ok {
		t.Fatal("seeded entry did not translate")
	}
	genBefore := tl.Gen()
	st := tl.CaptureState()
	hitsAt := tl.Hits

	// Perturb everything the snapshot covers.
	tl.WriteIndexed(3, Entry{})
	tl.WriteRandom(Entry{Hi: MakeHi(99, 1), Lo: MakeLo(9, LoV)})
	tl.Lookup(55<<12, 0) // miss: stats drift

	tl.RestoreState(st)
	if tl.Hits != hitsAt {
		t.Errorf("restored hit count %d, want %d", tl.Hits, hitsAt)
	}
	if _, _, ok := tl.Lookup(16<<12|0x24, 2); !ok {
		t.Fatal("restored entry did not translate")
	}
	if got := tl.Read(5); got.Hi != MakeHi(17, 2) {
		t.Errorf("slot 5 not restored: %+v", got)
	}
	// The generation must ADVANCE across restore so micro-TLB memos
	// keyed to the pre-restore array cannot survive it.
	if tl.Gen() <= genBefore {
		t.Errorf("TLB generation did not advance across restore: %d -> %d", genBefore, tl.Gen())
	}
	// The miss hook belongs to the machine, not the state: preserved.
	misses = 0
	tl.InjectMiss(0, 0)
	if misses != 1 {
		t.Errorf("InjectMiss hook lost across restore (calls=%d)", misses)
	}
}

// TestRestorePreservesGenMonotonicity: restoring an empty TLB image
// drops every entry and still advances the generation, so caches built
// against the pre-restore contents cannot alias the recycled TLB.
func TestRestorePreservesGenMonotonicity(t *testing.T) {
	empty := (&TLB{}).CaptureState()
	var tl TLB
	tl.WriteIndexed(0, Entry{Hi: MakeHi(1, 0), Lo: MakeLo(1, LoV)})
	g := tl.Gen()
	tl.RestoreState(empty)
	if tl.Gen() <= g {
		t.Fatalf("restore gen %d not past %d: recycled TLBs could alias stale caches", tl.Gen(), g)
	}
	if _, _, ok := tl.Lookup(1<<12, 0); ok {
		t.Fatal("lookup hit after restoring an empty TLB")
	}
}
