// Package tlb implements the R3000-style translation lookaside buffer of
// the simulated machine: 64 fully-associative entries tagged with an
// address-space identifier (ASID), written either by index or by a
// pseudo-random replacement register that never selects the first eight
// ("wired") entries.
//
// Each entry carries the paper's proposed extension: a U bit that, when
// set by the kernel, permits user-mode code to amplify or restrict the
// read/write protection bits of that entry (never the translation). See
// Section 2.2 of Thekkath & Levy.
//
// Lookup and Probe are O(1): a VPN-keyed index maps each live entry's
// virtual page number to a bitmask of the slots holding it, so the
// common hit touches one map bucket instead of scanning all 64 slots.
// The index is pure acceleration — match order and statistics are
// identical to the architectural linear scan (ascending slot order).
// Every mutation also bumps a generation counter (Gen) that the CPU's
// micro-TLBs use for precise invalidation.
package tlb

import (
	"math/bits"

	"uexc/internal/arch"
)

// Entries is the TLB size; Wired entries [0, Wired) are exempt from
// random replacement, as on the R3000.
const (
	Entries = 64
	Wired   = 8
)

// EntryLo bit assignments (R3000, plus the U extension in a
// previously-unused bit).
const (
	LoN uint32 = 1 << 11 // non-cacheable (modeled but ignored)
	LoD uint32 = 1 << 10 // dirty: set means writable
	LoV uint32 = 1 << 9  // valid
	LoG uint32 = 1 << 8  // global: ignore ASID on match
	LoU uint32 = 1 << 7  // user-protection-modifiable (proposed hardware)

	LoPFNMask uint32 = 0xfffff000
)

// EntryHi bit assignments.
const (
	HiVPNMask  uint32 = 0xfffff000
	HiASIDMask uint32 = 0x00000fc0
	HiASIDShft        = 6
)

// Entry is one TLB slot.
type Entry struct {
	Hi uint32
	Lo uint32
}

// VPN returns the entry's virtual page number (va >> 12).
func (e Entry) VPN() uint32 { return e.Hi >> arch.PageShift }

// ASID returns the entry's address-space identifier.
func (e Entry) ASID() uint8 { return uint8(e.Hi & HiASIDMask >> HiASIDShft) }

// PFN returns the entry's physical frame number.
func (e Entry) PFN() uint32 { return e.Lo >> arch.PageShift }

// Valid reports the V bit.
func (e Entry) Valid() bool { return e.Lo&LoV != 0 }

// Writable reports the D bit.
func (e Entry) Writable() bool { return e.Lo&LoD != 0 }

// Global reports the G bit.
func (e Entry) Global() bool { return e.Lo&LoG != 0 }

// UserModifiable reports the proposed U bit.
func (e Entry) UserModifiable() bool { return e.Lo&LoU != 0 }

// empty reports whether the slot is unoccupied. An all-zero pair is
// the only empty encoding: an entry legitimately mapping VPN 0 / ASID 0
// is live as long as any Lo flag (V, G, ...) is set.
func (e Entry) empty() bool { return e.Hi == 0 && e.Lo == 0 }

// MakeHi assembles an EntryHi from a virtual page number and ASID.
func MakeHi(vpn uint32, asid uint8) uint32 {
	return vpn<<arch.PageShift | uint32(asid)<<HiASIDShft&HiASIDMask
}

// MakeLo assembles an EntryLo from a physical frame number and flags.
func MakeLo(pfn uint32, flags uint32) uint32 {
	return pfn<<arch.PageShift | flags&^LoPFNMask
}

// State is a TLB's architectural contents plus its statistics: every
// field a snapshot carries. TLB embeds it, and CaptureState/RestoreState
// copy it as one value; the mutation generation, the VPN index, the
// memo, and the InjectMiss hook are derived or host-side state and live
// outside it.
type State struct {
	slots [Entries]Entry
	// rand drives WriteRandom victim selection deterministically; real
	// hardware decrements Random once per cycle, which is
	// indistinguishable from any other well-spread sequence for
	// replacement purposes.
	rand uint32

	// Hits and Misses count Lookup outcomes for statistics.
	Hits   uint64
	Misses uint64
}

// TLB is the translation buffer. The zero value is an empty TLB with all
// entries invalid.
type TLB struct {
	State

	// index maps the VPN of every live (non-empty) entry to a bitmask
	// of the slots holding it. Built lazily so the zero value stays
	// usable; nil means "not built yet".
	index map[uint32]uint64
	// gen counts mutations (writes, flips, protection updates,
	// invalidations, restores). The CPU's micro-TLBs compare it to
	// decide whether their cached translations are still current; it is
	// never rewound so a recycled TLB can't alias a stale cache.
	gen uint64

	// memo is a direct-mapped cache in front of index for Lookup's hot
	// path: memoVPN holds vpn+1 (0 = empty) and memoMask the slot
	// bitmask for that VPN (possibly zero: a cached miss). memoGen is
	// the generation the memo was filled under; any mutation makes the
	// whole memo stale at the next Lookup. Pure acceleration — match
	// results and Hits/Misses are unchanged.
	memoGen  uint64
	memoVPN  [64]uint32
	memoMask [64]uint64

	// InjectMiss, when non-nil, is consulted on every Lookup; returning
	// true forces a refill miss even if a matching entry exists,
	// modeling a glitched CAM compare. Hook point for
	// internal/faultinject. While installed, the CPU bypasses its
	// micro-TLBs so every lookup reaches this hook.
	InjectMiss func(va uint32, asid uint8) bool
}

// Gen returns the mutation generation. Any change to TLB contents —
// WriteIndexed, WriteRandom, FlipBits, UpdateProtection,
// InvalidateASID, InvalidatePage, RestoreState — advances it; caches keyed on
// a past generation must be discarded when it moves. The CPU's
// micro-TLBs flush on it, and since translated basic blocks are only
// reachable through a micro-ITLB hit, it transitively unmaps every
// block a dropped translation could have entered.
func (t *TLB) Gen() uint64 { return t.gen }

// buildIndex (re)derives the VPN index from the slot array.
func (t *TLB) buildIndex() {
	t.index = make(map[uint32]uint64, Entries)
	for i := range t.slots {
		t.indexAdd(i, t.slots[i])
	}
}

// indexAdd registers slot i holding entry e (no-op for empty entries or
// an unbuilt index).
func (t *TLB) indexAdd(i int, e Entry) {
	if t.index == nil || e.empty() {
		return
	}
	t.index[e.VPN()] |= 1 << uint(i)
}

// indexRemove unregisters slot i's previous occupant.
func (t *TLB) indexRemove(i int, e Entry) {
	if t.index == nil || e.empty() {
		return
	}
	vpn := e.VPN()
	if m := t.index[vpn] &^ (1 << uint(i)); m == 0 {
		delete(t.index, vpn)
	} else {
		t.index[vpn] = m
	}
}

// setSlot replaces slot i, maintaining the index and the generation.
func (t *TLB) setSlot(i int, e Entry) {
	t.indexRemove(i, t.slots[i])
	t.slots[i] = e
	t.indexAdd(i, e)
	t.gen++
}

// Lookup finds the entry mapping va for the given ASID. It returns the
// matching entry and its index. A miss (no VPN/ASID match) returns
// ok == false; validity and writability of a hit are for the caller
// (the CPU) to check and convert into TLBL/TLBS/Mod exceptions.
//
// Candidates are taken from the VPN index and visited in ascending slot
// order, which is exactly the architectural linear scan's match order.
func (t *TLB) Lookup(va uint32, asid uint8) (Entry, int, bool) {
	if t.InjectMiss != nil && t.InjectMiss(va, asid) {
		t.Misses++
		return Entry{}, -1, false
	}
	if t.index == nil {
		t.buildIndex()
	}
	vpn := va >> arch.PageShift
	if t.memoGen != t.gen {
		t.memoVPN = [64]uint32{}
		t.memoGen = t.gen
	}
	mi := vpn & 63
	var mask uint64
	if t.memoVPN[mi] == vpn+1 {
		mask = t.memoMask[mi]
	} else {
		mask = t.index[vpn]
		t.memoVPN[mi], t.memoMask[mi] = vpn+1, mask
	}
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros64(mask)
		e := t.slots[i]
		if e.Global() || e.ASID() == asid {
			t.Hits++
			return e, i, true
		}
	}
	t.Misses++
	return Entry{}, -1, false
}

// Probe returns the index of the entry whose Hi matches the given
// EntryHi value (VPN and ASID exactly, as TLBP does), or ok == false.
func (t *TLB) Probe(hi uint32) (int, bool) {
	if t.index == nil {
		t.buildIndex()
	}
	vpn := hi >> arch.PageShift
	asid := uint8(hi & HiASIDMask >> HiASIDShft)
	for mask := t.index[vpn]; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros64(mask)
		e := t.slots[i]
		if e.Global() || e.ASID() == asid {
			return i, true
		}
	}
	return -1, false
}

// Read returns the entry at index i (masked into range, as hardware
// does).
func (t *TLB) Read(i int) Entry {
	return t.slots[i&(Entries-1)]
}

// WriteIndexed replaces the entry at index i.
func (t *TLB) WriteIndexed(i int, e Entry) {
	t.setSlot(i&(Entries-1), e)
}

// FlipBits XORs the given masks into the entry at index i and returns
// the entry before and after. It models single-event upsets in the CAM
// (Hi side) or data array (Lo side); internal/faultinject is the only
// intended caller.
func (t *TLB) FlipBits(i int, hiMask, loMask uint32) (before, after Entry) {
	i &= Entries - 1
	before = t.slots[i]
	after = Entry{Hi: before.Hi ^ hiMask, Lo: before.Lo ^ loMask}
	t.setSlot(i, after)
	return before, after
}

// WriteRandom replaces a pseudo-randomly chosen non-wired entry and
// returns the victim index.
func (t *TLB) WriteRandom(e Entry) int {
	// xorshift step for spread; victims always land in [Wired, Entries).
	t.rand = t.rand*1664525 + 1013904223
	i := Wired + int(t.rand>>16%(Entries-Wired))
	t.setSlot(i, e)
	return i
}

// Random returns the index the next WriteRandom would use without
// advancing state; exposed for the CP0 Random register.
func (t *TLB) Random() int {
	r := t.rand*1664525 + 1013904223
	return Wired + int(r>>16%(Entries-Wired))
}

// InvalidateASID clears the V bit of every non-global entry with the
// given ASID; used at address-space teardown.
func (t *TLB) InvalidateASID(asid uint8) {
	for i := range t.slots {
		e := t.slots[i]
		if !e.empty() && !e.Global() && e.ASID() == asid {
			e.Lo &^= LoV
			t.setSlot(i, e)
		}
	}
}

// InvalidatePage clears any entry mapping vpn for asid (or globally).
// Returns true if an entry was dropped.
func (t *TLB) InvalidatePage(vpn uint32, asid uint8) bool {
	dropped := false
	for i := range t.slots {
		e := t.slots[i]
		if !e.empty() && e.VPN() == vpn && (e.Global() || e.ASID() == asid) {
			t.setSlot(i, Entry{})
			dropped = true
		}
	}
	return dropped
}

// UpdateProtection rewrites the D (writable) and V (valid) bits of the
// entry at index i. It is the primitive behind both kernel protection
// changes and the user-mode UTLBMOD instruction; UTLBMOD callers must
// check UserModifiable first.
func (t *TLB) UpdateProtection(i int, writable, valid bool) {
	e := t.slots[i&(Entries-1)]
	e.Lo &^= LoD | LoV
	if writable {
		e.Lo |= LoD
	}
	if valid {
		e.Lo |= LoV
	}
	t.setSlot(i&(Entries-1), e)
}
