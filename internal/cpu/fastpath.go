package cpu

// The interpreter fast path: split 4-entry micro-TLBs over the
// architectural TLB, a per-physical-page predecoded instruction cache,
// and direct page access through mem.Page handles. All three layers
// are observationally transparent — they change time-to-result, never
// the result (DESIGN.md §10 has the invalidation matrix):
//
//   - Micro-TLB entries are keyed by (VPN, ASID, kernel-mode) and hold
//     the physical page handle and protection of a translation that hit
//     a valid TLB entry (or a direct-mapped kseg0/kseg1 window). Any
//     TLB mutation advances tlb.TLB.Gen, and both micro-TLBs flush on
//     the next lookup when the generation moves; ASID changes and mode
//     switches are handled by the key itself. TLB.Hits is advanced on
//     every counted micro-hit, so hit/miss statistics stay byte-
//     identical to the uncached interpreter.
//   - The predecoded instruction cache maps a physical page to lazily
//     decoded arch.Inst values, validated against the page's store
//     generation (mem.Page.Gen) on every fetch: stores into a code page
//     — self-modifying code, program loads, injected corruption — make
//     the next fetch re-decode, exactly like the uncached interpreter's
//     decode-every-fetch behaviour.
//   - Whenever a tlb.TLB.InjectMiss hook is installed (fault-injection
//     campaigns), the micro-TLBs are bypassed entirely so the hook and
//     the statistics see every single lookup; the predecode cache stays
//     active because decoding is pure and generation-checked.
//     Engine=EngineInterp (translate.go) disables everything for
//     differential verification.
//
// The JIT tier (translate.go/block.go) builds on all three layers:
// blocks are discovered through the predecode cache, entered through
// micro-ITLB hits, and invalidated by the same page store generations.

import (
	"uexc/internal/arch"
	"uexc/internal/mem"
)

// microEntries is the size of each micro-TLB (fully associative,
// round-robin replacement).
const microEntries = 4

// Micro-TLB tag layout: VPN in bits 0..19, ASID in 20..25, a
// kernel-mode bit, and a presence bit so the zero entry never matches.
const (
	tagKMode   uint32 = 1 << 26
	tagPresent uint32 = 1 << 27
)

// utlbEntry caches one translation that is guaranteed current as long
// as the backing TLB generation does not move.
type utlbEntry struct {
	tag      uint32
	counted  bool // translation went through the TLB: micro-hits count as TLB hits
	writable bool
	page     *mem.Page
	insts    *pageInsts // ITLB entries only
}

// fillInfo describes a successful slow-path translation for micro-TLB
// filling.
type fillInfo struct {
	counted  bool
	writable bool
}

// pageInsts is the predecoded instruction cache of one physical page,
// validated against the page's store generation. It also owns the
// page's translated basic blocks (block.go), indexed by starting word
// offset; each block carries its own generation/identity guard, so a
// stale entry is revalidated (and recompiled) on entry rather than
// eagerly flushed here.
type pageInsts struct {
	gen    uint64 // mem.Page.Gen at decode time
	filled [arch.PageSize / 4 / 64]uint64
	insts  [arch.PageSize / 4]arch.Inst
	blocks [arch.PageSize / 4]*jitBlock
}

// fetch returns the decoded instruction at the word offset of pa,
// decoding (and re-decoding after any store into the page) on demand.
func (pi *pageInsts) fetch(pg *mem.Page, pa uint32) arch.Inst {
	if pi.gen != pg.Gen() {
		pi.filled = [arch.PageSize / 4 / 64]uint64{}
		pi.gen = pg.Gen()
	}
	w := pa & (arch.PageSize - 1) >> 2
	bit := uint64(1) << (w & 63)
	if pi.filled[w>>6]&bit == 0 {
		pi.insts[w] = arch.Decode(pg.Word(pa))
		pi.filled[w>>6] |= bit
	}
	return pi.insts[w]
}

// microServes reports whether a cached entry may be served right now: a
// counted entry stands in for a TLB.Lookup, which must reach the real
// TLB whenever an InjectMiss hook wants to see every lookup. Uncounted
// entries (direct-mapped kseg0/kseg1) never consult the TLB — no
// Lookup, no Hits/Misses, no hook — so they stay servable under
// fault-injection campaigns.
func (c *CPU) microServes(e *utlbEntry) bool {
	return !e.counted || c.TLB.InjectMiss == nil
}

// microTag builds the lookup key for va under the current ASID and
// privilege mode.
func (c *CPU) microTag(va uint32) uint32 {
	tag := va>>arch.PageShift | uint32(c.ASID())<<20 | tagPresent
	if c.CP0[arch.C0Status]&arch.SrKUc == 0 {
		tag |= tagKMode
	}
	return tag
}

// syncMicroTLB flushes both micro-TLBs if the architectural TLB has
// been mutated since they were last valid.
func (c *CPU) syncMicroTLB() {
	if g := c.TLB.Gen(); g != c.microGen {
		c.flushMicroTLB()
		c.microGen = g
	}
}

// flushMicroTLB empties both micro-TLBs.
func (c *CPU) flushMicroTLB() {
	c.itlb = [microEntries]utlbEntry{}
	c.dtlb = [microEntries]utlbEntry{}
}

// itlbLookup returns the micro-ITLB entry for a fetch from va, or nil
// to take the slow path.
func (c *CPU) itlbLookup(va uint32) *utlbEntry {
	if c.fastOff() {
		return nil
	}
	c.syncMicroTLB()
	tag := c.microTag(va)
	for i := range c.itlb {
		if c.itlb[i].tag == tag {
			if !c.microServes(&c.itlb[i]) {
				return nil
			}
			c.FastHits++
			return &c.itlb[i]
		}
	}
	return nil
}

// dtlbLookup returns the micro-DTLB entry for a data access to va, or
// nil to take the slow path. Stores require the cached translation to
// be writable; a cached read-only page falls back to the slow path,
// which raises Mod with identical statistics.
func (c *CPU) dtlbLookup(va uint32, store bool) *utlbEntry {
	if c.fastOff() {
		return nil
	}
	c.syncMicroTLB()
	tag := c.microTag(va)
	for i := range c.dtlb {
		if c.dtlb[i].tag == tag {
			if store && !c.dtlb[i].writable {
				return nil
			}
			if !c.microServes(&c.dtlb[i]) {
				return nil
			}
			c.FastHits++
			return &c.dtlb[i]
		}
	}
	return nil
}

// instsFor returns (allocating if needed) the predecode cache of the
// physical page holding pa. A one-entry memo short-circuits the map for
// runs of fetches from the same physical page — the common case even
// when the micro-ITLB is bypassed. The memo is keyed purely by physical
// frame: page handles never go stale, so it needs no invalidation.
func (c *CPU) instsFor(pa uint32, pg *mem.Page) *pageInsts {
	pfn := pa >> arch.PageShift
	if c.lastIPfn == pfn+1 {
		return c.lastIPi
	}
	pi := c.ipages[pfn]
	if pi == nil {
		if c.ipages == nil {
			c.ipages = make(map[uint32]*pageInsts)
		}
		pi = &pageInsts{gen: pg.Gen()}
		c.ipages[pfn] = pi
	}
	c.lastIPfn, c.lastIPi = pfn+1, pi
	return pi
}

// fillITLB caches a successful fetch translation.
func (c *CPU) fillITLB(va uint32, fi fillInfo, pg *mem.Page, pi *pageInsts) {
	if c.fastOff() || (fi.counted && c.TLB.InjectMiss != nil) {
		return
	}
	c.syncMicroTLB()
	c.itlb[c.itlbClock] = utlbEntry{
		tag: c.microTag(va), counted: fi.counted, writable: fi.writable,
		page: pg, insts: pi,
	}
	c.itlbClock = (c.itlbClock + 1) % microEntries
}

// fillDTLB caches a successful data translation. Unallocated pages are
// not cached (the slow path's reads-as-zero semantics need the Memory
// bookkeeping); the first store allocates, after which filling works.
func (c *CPU) fillDTLB(va, pa uint32, fi fillInfo) {
	if c.fastOff() || (fi.counted && c.TLB.InjectMiss != nil) {
		return
	}
	pg := c.Mem.PageRef(pa)
	if pg == nil {
		return
	}
	c.syncMicroTLB()
	c.dtlb[c.dtlbClock] = utlbEntry{
		tag: c.microTag(va), counted: fi.counted, writable: fi.writable, page: pg,
	}
	c.dtlbClock = (c.dtlbClock + 1) % microEntries
}
