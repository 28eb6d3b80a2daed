package gcsim

import (
	"fmt"
	"slices"
	"testing"

	"uexc/internal/core"
	"uexc/internal/simos"
)

func costs(t *testing.T, mode core.Mode) simos.CostTable {
	t.Helper()
	ct, err := simos.Measure(mode)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// configs is the three barrier configurations the paper compares,
// each with its mode's measured costs.
func configs(t *testing.T) []Config {
	ult := costs(t, core.ModeUltrix)
	fast := costs(t, core.ModeFast)
	return []Config{
		{Barrier: BarrierSigsegv, Costs: ult},
		{Barrier: BarrierFastEager, Costs: fast},
		{Barrier: BarrierSoftware, Costs: fast},
	}
}

// stats returns the run statistics h's first configuration booked.
func stats(h *Heap) Stats { return h.Results()[0].Stats }

// workloads is every workload the package runs.
var workloads = []struct {
	name string
	run  func(...Config) []Result
}{
	{"lisp", LispOps}, {"array", ArrayTest},
	{"tree", TreeWorkload}, {"interactive", InteractiveWorkload},
}

func TestBarriersProduceIdenticalHeaps(t *testing.T) {
	// The barrier mechanism changes cost, never collector results:
	// each barrier runs alone, on its own heap.
	cfgs := configs(t)
	for _, wl := range workloads {
		a := wl.run(cfgs[0])[0]
		b := wl.run(cfgs[1])[0]
		c := wl.run(cfgs[2])[0]
		if a.Checksum != b.Checksum || b.Checksum != c.Checksum {
			t.Errorf("%s: checksums differ: sigsegv %#x fast %#x software %#x",
				wl.name, a.Checksum, b.Checksum, c.Checksum)
		}
		if a.Stats.Collections != b.Stats.Collections || b.Stats.Collections != c.Stats.Collections {
			t.Errorf("%s: collection counts differ: %d/%d/%d", wl.name,
				a.Stats.Collections, b.Stats.Collections, c.Stats.Collections)
		}
		if a.Stats.Faults != b.Stats.Faults {
			t.Errorf("%s: fault counts differ between page barriers: %d vs %d",
				wl.name, a.Stats.Faults, b.Stats.Faults)
		}
		if c.Stats.Faults != 0 || c.Stats.Checks == 0 {
			t.Errorf("%s: software barrier faults=%d checks=%d", wl.name,
				c.Stats.Faults, c.Stats.Checks)
		}
	}
}

// TestSharedPassMatchesIsolatedRuns: a heap booking all three
// barriers in one pass reports, for each, exactly the Result — every
// Stats field, the checksum and every bit of Seconds — that the
// barrier alone reports on its own heap.
func TestSharedPassMatchesIsolatedRuns(t *testing.T) {
	cfgs := configs(t)
	for _, wl := range workloads {
		shared := wl.run(cfgs...)
		if len(shared) != len(cfgs) {
			t.Fatalf("%s: %d results for %d configs", wl.name, len(shared), len(cfgs))
		}
		for i, cfg := range cfgs {
			alone := fmt.Sprintf("%+v", wl.run(cfg)[0])
			if got := fmt.Sprintf("%+v", shared[i]); got != alone {
				t.Errorf("%s/%v: shared pass\n  %s\nisolated run\n  %s", wl.name, cfg.Barrier, got, alone)
			}
		}
	}
}

func TestLispOpsShape(t *testing.T) {
	// Paper §4.1: the Lisp-operations benchmark runs the collector
	// about 80 times and takes over 2000 protection faults; Ultrix CPU
	// time ~24 s, fast version faster.
	rs := LispOps(configs(t)[:2]...)
	ult, fast := rs[0], rs[1]

	if c := ult.Stats.Collections; c < 40 || c > 200 {
		t.Errorf("collections = %d, want ~80", c)
	}
	if f := ult.Stats.Faults; f < 2000 || f > 8000 {
		t.Errorf("faults = %d, want 2000-8000", f)
	}
	if ult.Seconds < 15 || ult.Seconds > 35 {
		t.Errorf("ultrix time = %.1fs, want ~24s", ult.Seconds)
	}
	if fast.Seconds >= ult.Seconds {
		t.Errorf("fast (%.2fs) not faster than ultrix (%.2fs)", fast.Seconds, ult.Seconds)
	}
	imp := 100 * (ult.Seconds - fast.Seconds) / ult.Seconds
	t.Logf("lisp: ultrix %.2fs fast %.2fs improvement %.1f%% (paper: 24 vs 23, 4%%); faults=%d collections=%d",
		ult.Seconds, fast.Seconds, imp, ult.Stats.Faults, ult.Stats.Collections)
	if imp <= 0 || imp > 15 {
		t.Errorf("improvement = %.1f%%, want (0, 15]", imp)
	}
}

func TestArrayTestShape(t *testing.T) {
	// Paper §4.1: 1 MB array with random replacement; ~2000 faults,
	// Ultrix ~2 s, fast ~1.8 s (10% improvement).
	rs := ArrayTest(configs(t)[:2]...)
	ult, fast := rs[0], rs[1]

	if f := ult.Stats.Faults; f < 1000 || f > 6000 {
		t.Errorf("faults = %d, want ~2000", f)
	}
	if ult.Seconds < 1.0 || ult.Seconds > 4.0 {
		t.Errorf("ultrix time = %.2fs, want ~2s", ult.Seconds)
	}
	imp := 100 * (ult.Seconds - fast.Seconds) / ult.Seconds
	t.Logf("array: ultrix %.2fs fast %.2fs improvement %.1f%% (paper: 2 vs 1.8, 10%%); faults=%d",
		ult.Seconds, fast.Seconds, imp, ult.Stats.Faults)
	if imp < 3 || imp > 20 {
		t.Errorf("improvement = %.1f%%, want [3, 20] (paper: 10%%)", imp)
	}
}

func TestArrayBenefitsMoreThanLisp(t *testing.T) {
	// Table 4's conclusion: performance impact is highly application-
	// dependent; the array test's fault density makes it benefit more.
	cfgs := configs(t)[:2]
	l, a := LispOps(cfgs...), ArrayTest(cfgs...)
	ultL, fastL, ultA, fastA := l[0], l[1], a[0], a[1]
	impL := (ultL.Seconds - fastL.Seconds) / ultL.Seconds
	impA := (ultA.Seconds - fastA.Seconds) / ultA.Seconds
	if impA <= impL {
		t.Errorf("array improvement %.2f%% not above lisp %.2f%%", 100*impA, 100*impL)
	}
}

func TestCheckAndTrapCounts(t *testing.T) {
	// Table 5 inputs: c (checks) from the software run, t (traps) from
	// the page-protection run, for each application.
	cfgs := configs(t)
	for _, wl := range []struct {
		name string
		run  func(...Config) []Result
	}{{"tree", TreeWorkload}, {"interactive", InteractiveWorkload}} {
		rs := wl.run(cfgs[2], cfgs[1])
		sw, pp := rs[0], rs[1]
		if sw.Stats.Checks == 0 || pp.Stats.Faults == 0 {
			t.Fatalf("%s: c=%d t=%d", wl.name, sw.Stats.Checks, pp.Stats.Faults)
		}
		ratio := float64(sw.Stats.Checks) / float64(pp.Stats.Faults)
		t.Logf("%s: c=%d t=%d c/t=%.0f", wl.name, sw.Stats.Checks, pp.Stats.Faults, ratio)
		if ratio < 10 {
			t.Errorf("%s: c/t = %.1f, implausibly low", wl.name, ratio)
		}
	}
}

func TestCollectReclaimsGarbage(t *testing.T) {
	h := New(100, Config{Barrier: BarrierSoftware})
	root := h.Alloc(1, 0, 0)
	h.AddRoot(root)
	for i := 0; i < 99; i++ {
		h.Alloc(uint32(i), 0, 0) // garbage
	}
	h.Collect()
	s := stats(h)
	if s.Promoted != 1 {
		t.Errorf("promoted = %d, want 1 (the root)", s.Promoted)
	}
	if s.Reclaimed != 99 {
		t.Errorf("reclaimed = %d, want 99", s.Reclaimed)
	}
}

func TestPromotionKeepsReachableStructure(t *testing.T) {
	h := New(1000, Config{Barrier: BarrierSoftware})
	// Build a small tree, keep it, collect, verify the structure.
	leaf1 := h.Alloc(10, 0, 0)
	leaf2 := h.Alloc(20, 0, 0)
	node := h.Alloc(30, leaf1, leaf2)
	h.AddRoot(node)
	before := h.Checksum()
	h.Collect()
	if got := h.Checksum(); got != before {
		t.Errorf("checksum changed across collection: %#x -> %#x", before, got)
	}
	for _, r := range []Ref{node, leaf1, leaf2} {
		if h.cell(r).page == young {
			t.Errorf("reachable cell %d not promoted", r)
		}
	}
}

func TestWriteBarrierFaultOncePerPagePerCycle(t *testing.T) {
	ct := simos.CostTable{ProtFaultRT: 100, MprotectPage: 50, MprotectExtraPage: 5}
	h := New(1_000_000, Config{Barrier: BarrierFastEager, Costs: ct})
	// Build some old objects on one page.
	objs := make([]Ref, 10)
	for i := range objs {
		objs[i] = h.Alloc(uint32(i), 0, 0)
		h.AddRoot(objs[i])
	}
	h.Collect()
	// Repeated stores to the same old page: exactly one fault.
	for i := 0; i < 5; i++ {
		h.WriteRef(objs[i%len(objs)], 0, h.Alloc(99, 0, 0))
	}
	if got := stats(h).Faults; got != 1 {
		t.Errorf("faults = %d, want 1 (page amplified after first)", got)
	}
	// After a collection the page is re-protected: next store faults.
	h.Collect()
	h.WriteRef(objs[0], 0, h.Alloc(100, 0, 0))
	if got := stats(h).Faults; got != 2 {
		t.Errorf("faults = %d, want 2 after re-protection", got)
	}
}

// TestWriteThroughReclaimedOldCell: the mutator may keep the Ref of an
// old cell a full collection reclaimed and store through it, as it may
// through a reclaimed young one. The cell left the old generation, so
// the store dirties no page — in particular none past the compacted
// generation's end, where this chain's deepest cell used to live.
func TestWriteThroughReclaimedOldCell(t *testing.T) {
	h := New(500, Config{Barrier: BarrierSigsegv})
	root := h.Alloc(0, 0, 0)
	h.AddRoot(root)
	deepest := h.Alloc(1, 0, 0)
	chain := deepest
	for i := 1; i < 200; i++ {
		chain = h.Alloc(uint32(i), chain, 0)
	}
	h.WriteRef(root, 0, chain)
	h.Collect() // promotes root and chain onto two old pages
	if pages := h.oldPages(); pages != 2 {
		t.Fatalf("old generation spans %d pages, want 2", pages)
	}
	h.WriteRef(root, 0, 0) // drop the chain
	h.CollectFull()
	if len(h.old) != 1 {
		t.Fatalf("old generation holds %d cells after the full collection, want 1", len(h.old))
	}
	faults := stats(h).Faults
	h.WriteRef(deepest, 1, 0)
	if slices.Contains(h.dirty, true) {
		t.Error("a store through a reclaimed cell dirtied a live page")
	}
	if got := stats(h).Faults; got != faults {
		t.Errorf("a store through a reclaimed cell faulted: %d -> %d faults", faults, got)
	}
}

func TestFullCollectionReclaimsOldGarbage(t *testing.T) {
	h := New(500, Config{Barrier: BarrierSoftware})
	root := h.Alloc(1, 0, 0)
	h.AddRoot(root)
	// Promote waves of garbage into the old generation: objects kept
	// alive through a root slot only until the next wave replaces them.
	for wave := 0; wave < 5; wave++ {
		chain := h.Alloc(uint32(wave), 0, 0)
		for i := 0; i < 400; i++ {
			chain = h.Alloc(uint32(i), chain, 0)
		}
		h.WriteRef(root, 0, chain) // previous wave becomes garbage
		h.Collect()                // promotes the live wave
	}
	before := len(h.old)
	checksum := h.Checksum()
	h.CollectFull()
	after := len(h.old)
	if after >= before {
		t.Errorf("full collection freed nothing: %d -> %d", before, after)
	}
	if stats(h).OldReclaimed == 0 {
		t.Error("OldReclaimed = 0")
	}
	if got := h.Checksum(); got != checksum {
		t.Errorf("full collection changed reachable data: %#x -> %#x", checksum, got)
	}
	// The compacted generation must be fully re-protected... software
	// barrier: no protection. Check dirty set cleared.
	if slices.Contains(h.dirty, true) {
		t.Error("dirty set survived full collection")
	}
}

func TestFullCollectionReprotectsUnderPageBarrier(t *testing.T) {
	ct := simos.CostTable{ProtFaultRT: 100, MprotectPage: 50, MprotectExtraPage: 5}
	h := New(1000, Config{Barrier: BarrierFastEager, Costs: ct})
	objs := make([]Ref, 20)
	for i := range objs {
		objs[i] = h.Alloc(uint32(i), 0, 0)
		h.AddRoot(objs[i])
	}
	h.Collect()
	// Open a page via a fault, then run a full collection: the page
	// must be protected again.
	h.WriteRef(objs[0], 0, h.Alloc(1, 0, 0))
	if f := stats(h).Faults; f != 1 {
		t.Fatalf("faults = %d", f)
	}
	h.CollectFull()
	h.WriteRef(objs[0], 1, h.Alloc(2, 0, 0))
	if f := stats(h).Faults; f != 2 {
		t.Errorf("faults = %d, want 2 (page re-protected by full collection)", f)
	}
}

func TestLispOpsRunsFullCollections(t *testing.T) {
	r := LispOps(Config{Barrier: BarrierSoftware})[0]
	if r.Stats.FullCollections < 3 {
		t.Errorf("full collections = %d, want >= 3", r.Stats.FullCollections)
	}
	if r.Stats.OldReclaimed == 0 {
		t.Error("no old-generation garbage reclaimed")
	}
}

func TestCollectScansDirtyPagesInPageOrder(t *testing.T) {
	// Young cells reachable only through dirty, non-root old pages are
	// promoted in ascending page order, whatever order the pages were
	// dirtied in. Repeat to catch any order that varies between runs.
	for run := 0; run < 20; run++ {
		h := New(1000, Config{Barrier: BarrierSoftware})
		// A three-page list hanging off one root; preorder promotion
		// puts list position k on page k/objsPerPage.
		list := make([]Ref, 3*objsPerPage)
		for k := len(list) - 1; k >= 0; k-- {
			next := Ref(0)
			if k+1 < len(list) {
				next = list[k+1]
			}
			list[k] = h.Alloc(uint32(k), next, 0)
		}
		h.AddRoot(list[0])
		h.Collect()
		onPage1, onPage2 := list[objsPerPage+5], list[2*objsPerPage+5]
		if p1, p2 := h.cell(onPage1).page, h.cell(onPage2).page; p1 != 1 || p2 != 2 {
			t.Fatalf("list cells on pages %d and %d, want 1 and 2", p1, p2)
		}

		viaPage2 := h.Alloc(2, 0, 0)
		h.WriteRef(onPage2, 1, viaPage2)
		viaPage1 := h.Alloc(1, 0, 0)
		h.WriteRef(onPage1, 1, viaPage1)
		h.Collect()

		n := len(h.old)
		if got := h.old[n-2:]; got[0] != viaPage1 || got[1] != viaPage2 {
			t.Fatalf("run %d: promoted %v, want [%d %d] (page 1's referent first)",
				run, got, viaPage1, viaPage2)
		}
	}
}

func TestAllocsPerRunBounded(t *testing.T) {
	// The arena allocates cells in chunks, so host allocations are a
	// small fraction of simulated cells: at most one per 64, with all
	// three barriers booked in the one pass.
	cfgs := configs(t)
	for _, wl := range workloads {
		var r Result
		allocs := testing.AllocsPerRun(1, func() { r = wl.run(cfgs...)[0] })
		limit := float64(r.Stats.Allocated) / 64
		t.Logf("%s: %.0f host allocations for %d cells", wl.name, allocs, r.Stats.Allocated)
		if allocs > limit {
			t.Errorf("%s: %.0f host allocations, want at most %.0f (cells/64)", wl.name, allocs, limit)
		}
	}
}
