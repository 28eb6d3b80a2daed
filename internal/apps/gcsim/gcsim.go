// Package gcsim implements the paper's §4.1 application study: a
// generational, incremental garbage collector in the style of the
// Xerox/Boehm collector, whose write barrier — the mechanism that
// detects stores creating old→young pointers — can be implemented
// three ways:
//
//   - BarrierSigsegv: write-protect old-generation pages; detect
//     barrier stores via SIGSEGV + mprotect (the Ultrix baseline);
//   - BarrierFastEager: the same page protection, but faults are
//     delivered by the paper's fast mechanism with eager amplification
//     (no unprotect syscall in the handler);
//   - BarrierSoftware: explicit inline checks before every pointer
//     store (the Hosking & Moss comparison of Table 5).
//
// The collector itself is real: it allocates objects, traces
// reachability from roots plus dirty-page remembered sets, promotes
// survivors, and reclaims garbage. The barrier changes only the cost,
// never the heap, so a heap runs once and books each Config's costs on
// its own virtual clock from that Config's measured simos.CostTable.
package gcsim

import (
	"math/rand"
	"slices"

	"uexc/internal/simos"
)

// Barrier selects the write-barrier mechanism.
type Barrier int

const (
	BarrierSigsegv Barrier = iota
	BarrierFastEager
	BarrierSoftware
)

// String names the barrier for reports.
func (b Barrier) String() string {
	switch b {
	case BarrierSigsegv:
		return "Ultrix SIGSEGV + mprotect"
	case BarrierFastEager:
		return "Fast exceptions + eager amplification"
	case BarrierSoftware:
		return "Software checks"
	}
	return "unknown"
}

// Mutator/collector cost model (cycles), representing the compiled
// application and collector code the paper's benchmarks executed.
// These charges are identical across barrier configurations; only the
// barrier costs differ.
const (
	allocCycles    = 18  // cons: bump allocate + initialize
	storeCycles    = 2   // the pointer store itself
	computeCycles  = 24  // mutator work per operation (car/cdr/arith)
	traceObjCycles = 40  // per object traced during collection
	scanPageCycles = 700 // per dirty old page scanned for old→young refs
	promoteCycles  = 60  // copy an object to the old generation
	reclaimCycles  = 4   // per reclaimed young object
	checkCyclesStd = 5   // software barrier check (Hosking & Moss: 5 instructions)
	objsPerPage    = 128 // 32-byte cons cells per 4 KB page
)

// Config is one barrier configuration a heap books costs for.
type Config struct {
	Barrier Barrier
	Costs   simos.CostTable
}

// ledger is one Config's account of a run: its clock takes the charges
// in the order a run of that Config alone makes them, so its sum is that
// run's, bit for bit. Its Stats hold only Faults, Checks and BarrierCyc.
type ledger struct {
	Config
	Stats
	clock simos.Clock
}

// Stats tallies one run.
type Stats struct {
	Collections     int
	FullCollections int
	Allocated       int
	Promoted        int
	Reclaimed       int
	OldReclaimed    int    // old-generation objects freed by full collections
	Faults          int    // protection faults taken (page barriers)
	Checks          uint64 // software checks executed
	OldPages        int
	BarrierCyc      float64
}

// Ref names a heap cell. The zero Ref is nil.
type Ref int32

// young is the page of a cell that has not been promoted.
const young = -1

// cell is a cons: a datum and two references. It holds no Go
// pointers, so the host garbage collector never scans the arena.
type cell struct {
	refs [2]Ref
	data uint32
	page int32  // old-generation page index, or young
	mark uint32 // epoch of the last walk that reached this cell
}

// chunkCells is the arena's chunk size. Chunks are allocated whole and
// never moved, so growing the arena never copies cells.
const (
	chunkBits  = 12
	chunkCells = 1 << chunkBits
)

// Heap is the collected heap. Cells live in an append-only arena: a
// cell the collector reclaims is never reused, because the mutator may
// still hold its Ref in a local (TreeWorkload's build does) and splice
// it back into the heap, exactly as a Go pointer would keep it alive.
type Heap struct {
	ledgers []ledger

	chunks []*[chunkCells]cell
	cells  int // cells allocated, including the nil cell

	nursery    int // young cells allocated since the last collection
	nurseryCap int

	// old lists the old generation in promotion order; page p holds
	// old[p*objsPerPage:(p+1)*objsPerPage], since promotion and
	// compaction both fill pages in order.
	old []Ref

	// dirty marks the old pages stored into since the last collection;
	// a page barrier write-protects exactly the clean ones.
	dirty []bool

	roots  []Ref
	epoch  uint32 // bumped once per heap walk
	marked []Ref  // young cells reached by the current collection

	stats Stats
}

// New creates a heap that books the costs of each of cfgs. nurseryCap
// is the young-generation size in objects.
func New(nurseryCap int, cfgs ...Config) *Heap {
	h := &Heap{
		chunks:     []*[chunkCells]cell{new([chunkCells]cell)},
		cells:      1, // cell 0 is nil
		nurseryCap: nurseryCap,
	}
	for _, cfg := range cfgs {
		h.ledgers = append(h.ledgers, ledger{Config: cfg})
	}
	return h
}

// cell returns r's storage. Chunks never move, so the pointer stays
// valid across Alloc.
func (h *Heap) cell(r Ref) *cell { return &h.chunks[r>>chunkBits][r&(chunkCells-1)] }

// oldPages is the number of old-generation pages in use.
func (h *Heap) oldPages() int { return (len(h.old) + objsPerPage - 1) / objsPerPage }

// charge books cy cycles on every ledger.
func (h *Heap) charge(cy float64) {
	for i := range h.ledgers {
		h.ledgers[i].clock.Charge(cy)
	}
}

// Results reports the run as each Config booked it, in New's order.
func (h *Heap) Results() []Result {
	sum := h.Checksum()
	rs := make([]Result, len(h.ledgers))
	for i, l := range h.ledgers {
		s := h.stats
		s.OldPages = h.oldPages()
		s.Faults, s.Checks, s.BarrierCyc = l.Faults, l.Checks, l.BarrierCyc
		rs[i] = Result{Barrier: l.Barrier, Seconds: l.clock.Seconds(), Stats: s, Checksum: sum}
	}
	return rs
}

// AddRoot registers a root slot.
func (h *Heap) AddRoot(r Ref) { h.roots = append(h.roots, r) }

// Work charges mutator computation.
func (h *Heap) Work(ops int) { h.charge(float64(ops) * computeCycles) }

// Alloc allocates a young object, collecting first if the nursery is
// full.
func (h *Heap) Alloc(data uint32, left, right Ref) Ref {
	if h.nursery >= h.nurseryCap {
		h.Collect()
	}
	h.charge(allocCycles)
	h.stats.Allocated++
	h.nursery++
	if h.cells%chunkCells == 0 {
		h.chunks = append(h.chunks, new([chunkCells]cell))
	}
	r := Ref(h.cells)
	h.cells++
	*h.cell(r) = cell{refs: [2]Ref{left, right}, data: data, page: young}
	return r
}

// WriteRef performs a pointer store src.refs[slot] = dst through each
// configured write barrier.
func (h *Heap) WriteRef(src Ref, slot int, dst Ref) {
	c := h.cell(src)
	// A page barrier protects exactly the clean old pages, so a store to
	// one faults; under every barrier the store leaves its page dirty.
	fault := c.page != young && !h.dirty[c.page]
	if c.page != young {
		h.dirty[c.page] = true
	}
	for i := range h.ledgers {
		l := &h.ledgers[i]
		l.clock.Charge(storeCycles)
		switch {
		case l.Barrier == BarrierSoftware:
			// Inline check before every pointer store.
			l.clock.Charge(checkCyclesStd)
			l.Checks++
		case fault:
			// The store traps; the handler records the page in the
			// dirty set and unprotects it (eagerly amplified under
			// BarrierFastEager; by in-handler mprotect under
			// BarrierSigsegv — both are inside the measured
			// ProtFaultRT for their mode).
			l.Faults++
			l.clock.Charge(l.Costs.ProtFaultRT)
			l.BarrierCyc += l.Costs.ProtFaultRT
		}
	}
	c.refs[slot] = dst
}

// ReadRef performs a pointer load (no barrier; charged as compute).
func (h *Heap) ReadRef(src Ref, slot int) Ref {
	h.charge(storeCycles)
	return h.cell(src).refs[slot]
}

// mark traces the cells reachable from r, depth first in preorder
// (refs[0] before refs[1]), charging each once. A minor collection's
// trace stops at old cells and records the young ones for promotion.
func (h *Heap) mark(r Ref, minor bool) {
	if r == 0 {
		return
	}
	c := h.cell(r)
	if c.mark == h.epoch || minor && c.page != young {
		return
	}
	c.mark = h.epoch
	h.charge(traceObjCycles)
	if minor {
		h.marked = append(h.marked, r)
	}
	h.mark(c.refs[0], minor)
	h.mark(c.refs[1], minor)
}

// Collect runs a young-generation collection: trace from roots and
// from dirty old pages, promote survivors, reclaim the rest, then
// re-protect the old generation pages that were opened.
func (h *Heap) Collect() {
	h.stats.Collections++
	h.epoch++
	h.marked = h.marked[:0]

	// Mark phase: roots first.
	for _, r := range h.roots {
		if r == 0 {
			continue
		}
		if c := h.cell(r); c.page == young {
			h.mark(r, true)
		} else {
			// Old roots: their young referents are found via the
			// dirty-set scan below, but the root object itself is
			// always scanned (registered roots are few).
			h.mark(c.refs[0], true)
			h.mark(c.refs[1], true)
		}
	}
	// Remembered set: scan dirty old pages, in page order, for
	// old→young pointers.
	dirtyPages := 0
	for page, dirty := range h.dirty {
		if !dirty {
			continue
		}
		dirtyPages++
		h.charge(scanPageCycles)
		for _, r := range h.old[page*objsPerPage : min((page+1)*objsPerPage, len(h.old))] {
			c := h.cell(r)
			h.mark(c.refs[0], true)
			h.mark(c.refs[1], true)
		}
	}

	// Promote survivors to the old generation.
	for _, r := range h.marked {
		h.charge(promoteCycles)
		h.cell(r).page = int32(len(h.old) / objsPerPage)
		h.old = append(h.old, r)
		h.stats.Promoted++
	}
	h.stats.Reclaimed += h.nursery - len(h.marked)
	h.charge(float64(h.nursery-len(h.marked)) * reclaimCycles)
	h.nursery = 0

	// Re-protect the old generation under page barriers: one batched
	// mprotect covering the opened (dirty) and newly created pages.
	// Before the first promotion there is nothing to protect.
	if len(h.old) > 0 {
		h.reprotect(dirtyPages)
	}
}

// reprotect sizes the dirty set to the old generation and empties it,
// which under a page barrier write-protects every page, and charges
// each page-barrier ledger one batched mprotect call that opens with
// the given number of extra pages.
func (h *Heap) reprotect(extra int) {
	n := h.oldPages()
	h.dirty = slices.Grow(h.dirty[:0], n)[:n]
	clear(h.dirty)
	for i := range h.ledgers {
		if l := &h.ledgers[i]; l.Barrier != BarrierSoftware {
			l.clock.Charge(l.Costs.MprotectPage + float64(extra)*l.Costs.MprotectExtraPage)
		}
	}
}

// CollectFull runs a major collection: the whole heap (both
// generations) is traced from the roots, unreachable old objects are
// reclaimed, and survivors are compacted onto fresh old pages. The
// entire old generation is re-protected afterwards under page barriers
// (the Xerox collector's occasional full collection).
func (h *Heap) CollectFull() {
	// A full collection subsumes a young collection: run it first so
	// the nursery is empty and all survivors live in the old
	// generation.
	h.Collect()
	h.stats.FullCollections++

	// Mark reachable old objects.
	h.epoch++
	for _, r := range h.roots {
		h.mark(r, false)
	}

	// Sweep and compact in page order: survivors slide down onto a
	// fresh page sequence starting at page 0.
	live := h.old[:0]
	for _, r := range h.old {
		c := h.cell(r)
		if c.mark != h.epoch {
			// The cell leaves the old generation: a store through a Ref
			// the mutator kept dirties no page, as for a reclaimed young
			// cell.
			c.page = young
			h.stats.OldReclaimed++
			h.charge(reclaimCycles)
			continue
		}
		h.charge(promoteCycles) // compaction copy
		c.page = int32(len(live) / objsPerPage)
		live = append(live, r)
	}
	h.old = live

	// Reset protection state for the compacted generation.
	h.reprotect(h.oldPages())
}

// Checksum folds the reachable heap into a value; used to prove that
// barrier mechanisms do not change collector results.
func (h *Heap) Checksum() uint32 {
	h.epoch++
	var sum uint32
	for _, r := range h.roots {
		sum = h.fold(sum, r, 1)
	}
	return sum
}

// fold folds the cells reachable from r into sum, depth first in
// preorder, each cell once.
func (h *Heap) fold(sum uint32, r Ref, depth uint32) uint32 {
	if r == 0 {
		return sum
	}
	c := h.cell(r)
	if c.mark == h.epoch {
		return sum
	}
	c.mark = h.epoch
	sum = sum*1000003 + c.data + depth
	sum = h.fold(sum, c.refs[0], depth+1)
	return h.fold(sum, c.refs[1], depth+1)
}

// --- Workloads -------------------------------------------------------

// Result summarizes a workload run as one Config booked it. Each
// workload walks its heap once and returns one Result per Config.
type Result struct {
	Barrier  Barrier
	Seconds  float64
	Stats    Stats
	Checksum uint32
}

// promoteRoots allocates n cells holding 0..n-1, registers each as a
// root and collects, promoting them into the long-lived old generation.
func (h *Heap) promoteRoots(n int) []Ref {
	cells := make([]Ref, n)
	for i := range cells {
		cells[i] = h.Alloc(uint32(i), 0, 0)
		h.AddRoot(cells[i])
	}
	h.Collect()
	return cells
}

// LispOps is the paper's first benchmark: simulated Lisp operators
// (cons/car/cdr) repeatedly building large list structures without
// explicit deallocation, running the collector ~80 times and taking a
// few thousand protection faults (§4.1).
func LispOps(cfgs ...Config) []Result {
	h := New(8200, cfgs...)
	rng := rand.New(rand.NewSource(42))

	// Long-lived skeleton: a vector of list heads that survive
	// collections (they promote to the old generation, spanning ~32
	// pages), into which the mutator keeps splicing fresh young lists
	// (old→young stores).
	const skeletonSize = 4000
	skeleton := h.promoteRoots(skeletonSize)

	const iters = 120_000
	for i := 0; i < iters; i++ {
		// cons up a small fresh list (young garbage mostly).
		n := 3 + rng.Intn(6)
		var list Ref
		for j := 0; j < n; j++ {
			list = h.Alloc(uint32(i+j), list, 0)
			h.Work(6)
		}
		// Splice into the long-lived skeleton: an old→young store that
		// exercises the barrier.
		slot := rng.Intn(skeletonSize)
		h.WriteRef(skeleton[slot], 1, list)
		// car/cdr walking and arithmetic on the fresh list.
		for p, steps := list, 0; p != 0 && steps < n; steps++ {
			p = h.ReadRef(p, 0)
			h.Work(5)
		}
		h.Work(120) // the rest of the Lisp operator mix per iteration
		if (i+1)%30_000 == 0 {
			h.CollectFull() // occasional major collection, as in Xerox's
		}
	}
	return h.Results()
}

// ArrayTest is the paper's second benchmark: a large (1 MB) array whose
// elements are randomly replaced with fresh objects; each replacement
// creates garbage and many replacements store old→young pointers,
// giving a much higher fault density relative to run time (§4.1).
func ArrayTest(cfgs ...Config) []Result {
	h := New(4000, cfgs...)
	rng := rand.New(rand.NewSource(43))

	// The 1 MB array: 8192 slot-objects spanning 64 pages of 32-byte
	// cells, long-lived.
	const slots = 8192
	array := h.promoteRoots(slots)

	const replacements = 120_000
	for i := 0; i < replacements; i++ {
		idx := rng.Intn(slots)
		fresh := h.Alloc(uint32(i), 0, 0)
		h.WriteRef(array[idx], 0, fresh) // old→young: barrier
		h.Work(7)
	}
	return h.Results()
}

// TreeWorkload and InteractiveWorkload are the Hosking & Moss-style
// applications of Table 5: they report the software-check count c and
// the trap count t for the break-even computation y = c·x/(f·t).
//
// Tree builds and destroys binary trees with occasional long-lived
// splices (few traps per many stores); Interactive mixes operations
// with a higher proportion of distinct old pages touched per
// collection cycle (more traps per store).
func TreeWorkload(cfgs ...Config) []Result {
	h := New(6000, cfgs...)
	rng := rand.New(rand.NewSource(44))

	// A forest of long-lived tree nodes (~50 old pages) subjected to
	// destructive updates: fresh subtrees are built (many young→young
	// checked stores) and spliced into random old nodes (occasional
	// trapping stores).
	const poolSize = 6400
	pool := h.promoteRoots(poolSize)

	var build func(depth int) Ref
	build = func(depth int) Ref {
		if depth == 0 {
			return h.Alloc(1, 0, 0)
		}
		l := build(depth - 1)
		r := build(depth - 1)
		n := h.Alloc(uint32(depth), 0, 0)
		h.WriteRef(n, 0, l)
		h.WriteRef(n, 1, r)
		return n
	}
	for i := 0; i < 5000; i++ {
		t := build(5) // 31 nodes, 62 checked stores
		h.WriteRef(pool[rng.Intn(poolSize)], rng.Intn(2), t)
		h.Work(40)
	}
	return h.Results()
}

// InteractiveWorkload models the Smalltalk macro-benchmark mix: widely
// scattered updates to long-lived state, so page protection traps are
// comparatively frequent per store.
func InteractiveWorkload(cfgs ...Config) []Result {
	h := New(2500, cfgs...)
	rng := rand.New(rand.NewSource(45))

	const state = 3000
	objs := h.promoteRoots(state)

	for i := 0; i < 30_000; i++ {
		idx := rng.Intn(state)
		fresh := h.Alloc(uint32(i), 0, 0)
		h.WriteRef(objs[idx], rng.Intn(2), fresh)
		h.Work(6)
	}
	return h.Results()
}
