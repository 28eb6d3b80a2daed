// Package mem implements the simulated machine's physical memory: a
// sparse, page-granular byte store with little-endian word access, as on
// the DECstation's R3000 configuration.
//
// Physical memory has no protection and no alignment rules of its own;
// translation, protection, and alignment checking happen in the CPU and
// TLB. Accesses beyond the configured physical size are bus errors,
// reported as error values for the CPU to turn into IBE/DBE exceptions.
//
// Two fast-path facilities support the interpreter (see DESIGN.md §10):
//
//   - Page handles: PageRef exposes the backing page of a physical
//     address as a *Page whose accessors read and write bytes directly,
//     so a caller that caches the handle (the CPU's micro-TLBs) skips
//     the per-access map lookup. Handles never go stale — pages are
//     allocated once and reused forever, even across RestoreState.
//   - Store generations: every mutation of a page advances its Gen
//     counter, giving the CPU's predecoded instruction cache a precise,
//     O(1) invalidation signal for self-modifying code, program loads,
//     and injected memory corruption alike.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// pageShift matches the hardware page size (4 KB) for allocation
// granularity only; physical memory itself is flat.
const pageShift = 12
const pageBytes = 1 << pageShift

// ErrBusError is returned for accesses outside physical memory.
var ErrBusError = errors.New("mem: bus error")

// Page is the backing store of one physical page. All mutations go
// through its Set* methods (or the Memory Store* wrappers), which keep
// the generation counter honest; readers holding a *Page may cache
// derived state (decoded instructions) keyed by Gen.
type Page struct {
	data []byte
	gen  uint64
}

// Gen returns the page's store generation: it advances on every write
// into the page, including a snapshot restore's rewrite. It is the single
// invalidation signal for all derived code state — the CPU's predecode
// cache revalidates against it on every fetch and the translation
// tier's basic blocks re-prove it on every block entry — so any new
// mutation path through this package must advance it or those caches
// will serve stale instructions.
func (p *Page) Gen() uint64 { return p.gen }

// Byte reads the byte at the given offset within the page.
func (p *Page) Byte(off uint32) uint8 { return p.data[off&(pageBytes-1)] }

// Half reads a little-endian halfword at an in-page offset; off (mod
// page size) must be <= pageSize-2, which any half-aligned offset is.
func (p *Page) Half(off uint32) uint16 {
	off &= pageBytes - 1
	return binary.LittleEndian.Uint16(p.data[off:])
}

// Word reads a little-endian word at an in-page offset; off (mod page
// size) must be <= pageSize-4, which any word-aligned offset is.
func (p *Page) Word(off uint32) uint32 {
	off &= pageBytes - 1
	return binary.LittleEndian.Uint32(p.data[off:])
}

// Word64 reads two consecutive little-endian words as one 64-bit value
// (low word first); off (mod page size) must be <= pageSize-8. Scanners
// (the kernel's invariant checker) use it to skip zero runs fast.
func (p *Page) Word64(off uint32) uint64 {
	off &= pageBytes - 1
	return binary.LittleEndian.Uint64(p.data[off:])
}

// SetByte writes one byte and advances the generation.
func (p *Page) SetByte(off uint32, v uint8) {
	p.data[off&(pageBytes-1)] = v
	p.gen++
}

// SetHalf writes a little-endian halfword (offset rules as Half).
func (p *Page) SetHalf(off uint32, v uint16) {
	off &= pageBytes - 1
	binary.LittleEndian.PutUint16(p.data[off:], v)
	p.gen++
}

// SetWord writes a little-endian word (offset rules as Word).
func (p *Page) SetWord(off uint32, v uint32) {
	off &= pageBytes - 1
	binary.LittleEndian.PutUint32(p.data[off:], v)
	p.gen++
}

// handleCacheSize is the direct-mapped page-handle cache inside Memory
// (a power of two). Handles never go stale, so the cache needs no
// invalidation; it only short-circuits the pfn -> *Page map lookup.
const handleCacheSize = 8

// Memory is a sparse physical memory of a fixed size. The zero value is
// unusable; use New.
type Memory struct {
	size  uint32
	pages map[uint32]*Page // page frame number -> backing page

	// Direct-mapped handle cache: tag holds pfn+1 (0 = empty slot).
	cacheTag [handleCacheSize]uint32
	cachePg  [handleCacheSize]*Page

	// Snapshot binding (snapshot.go): the MemState this memory's
	// contents were last captured into or restored from, and, per page,
	// the store generation at which the page content last matched that
	// snapshot. Host-side bookkeeping only — never observable by the
	// guest.
	boundTo   *MemState
	boundGens map[uint32]uint64

	// backing is the lazy fork source (snapshot.go): snapshot pages this
	// Memory has never materialized are copied in on first access by the
	// existing page-miss path, so Fork is O(1) in page contents and the
	// first touch — not the fork — pays for the copy. Nil on machines
	// that were booted rather than forked.
	backing *MemState
}

// New creates a physical memory of the given size in bytes, rounded up
// to a whole page. Backing pages are allocated on first touch.
func New(size uint32) *Memory { return Init(new(Memory), size) }

// Init initializes a Memory in place, for callers that embed one in a
// larger allocation (the fork shell builds a whole machine from a
// single allocation; see kernel.NewForRestore). m must be zero-valued.
// The page map itself is allocated on first page touch, keeping a
// forked machine's checkout allocation-free on the memory side.
func Init(m *Memory, size uint32) *Memory {
	m.size = (size + pageBytes - 1) &^ (pageBytes - 1)
	return m
}

// Size returns the physical memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// lookup returns the page holding pfn via the handle cache, or nil if
// the page is unallocated.
func (m *Memory) lookup(pfn uint32) *Page {
	i := pfn & (handleCacheSize - 1)
	if m.cacheTag[i] == pfn+1 {
		return m.cachePg[i]
	}
	p := m.pages[pfn]
	if p != nil {
		m.cacheTag[i], m.cachePg[i] = pfn+1, p
	}
	return p
}

func (m *Memory) page(pa uint32, alloc bool) (*Page, error) {
	if pa >= m.size {
		return nil, fmt.Errorf("%w: pa %#x beyond %#x", ErrBusError, pa, m.size)
	}
	pfn := pa >> pageShift
	p := m.lookup(pfn)
	if p == nil {
		if m.backing != nil {
			p = m.materialize(pfn)
		}
		if p == nil && alloc {
			p = &Page{data: make([]byte, pageBytes)}
			if m.pages == nil {
				m.pages = make(map[uint32]*Page)
			}
			m.pages[pfn] = p
			m.cacheTag[pfn&(handleCacheSize-1)] = pfn + 1
			m.cachePg[pfn&(handleCacheSize-1)] = p
		}
	}
	return p, nil
}

// PageRef returns the page handle backing pa, or nil if pa is beyond
// physical memory or its page has never been touched. The handle stays
// valid forever (pages survive RestoreState); content staleness is tracked by
// Page.Gen.
func (m *Memory) PageRef(pa uint32) *Page {
	if pa >= m.size {
		return nil
	}
	p := m.lookup(pa >> pageShift)
	if p == nil && m.backing != nil {
		p = m.materialize(pa >> pageShift)
	}
	return p
}

// LoadByte reads one byte of physical memory.
func (m *Memory) LoadByte(pa uint32) (uint8, error) {
	p, err := m.page(pa, false)
	if err != nil {
		return 0, err
	}
	if p == nil {
		return 0, nil
	}
	return p.Byte(pa), nil
}

// StoreByte writes one byte of physical memory.
func (m *Memory) StoreByte(pa uint32, v uint8) error {
	p, err := m.page(pa, true)
	if err != nil {
		return err
	}
	p.SetByte(pa, v)
	return nil
}

// LoadHalf reads a little-endian halfword. pa must be half-aligned
// (alignment is checked by the CPU; this is a defensive check).
func (m *Memory) LoadHalf(pa uint32) (uint16, error) {
	if pa < m.size-1 && pa&(pageBytes-1) <= pageBytes-2 {
		p := m.lookup(pa >> pageShift)
		if p == nil {
			if m.backing != nil {
				if p = m.materialize(pa >> pageShift); p != nil {
					return p.Half(pa), nil
				}
			}
			return 0, nil
		}
		return p.Half(pa), nil
	}
	lo, err := m.LoadByte(pa)
	if err != nil {
		return 0, err
	}
	hi, err := m.LoadByte(pa + 1)
	if err != nil {
		return 0, err
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

// StoreHalf writes a little-endian halfword.
func (m *Memory) StoreHalf(pa uint32, v uint16) error {
	if pa < m.size-1 && pa&(pageBytes-1) <= pageBytes-2 {
		p, err := m.page(pa, true)
		if err != nil {
			return err
		}
		p.SetHalf(pa, v)
		return nil
	}
	if err := m.StoreByte(pa, uint8(v)); err != nil {
		return err
	}
	return m.StoreByte(pa+1, uint8(v>>8))
}

// LoadWord reads a little-endian 32-bit word.
func (m *Memory) LoadWord(pa uint32) (uint32, error) {
	// Fast path: word in range and within one page (size is at least one
	// page, so pa < size-3 also rules out pa+3 wrapping).
	if pa < m.size-3 && pa&(pageBytes-1) <= pageBytes-4 {
		p := m.lookup(pa >> pageShift)
		if p == nil {
			if m.backing != nil {
				if p = m.materialize(pa >> pageShift); p != nil {
					return p.Word(pa), nil
				}
			}
			return 0, nil
		}
		return p.Word(pa), nil
	}
	lo, err := m.LoadHalf(pa)
	if err != nil {
		return 0, err
	}
	hi, err := m.LoadHalf(pa + 2)
	if err != nil {
		return 0, err
	}
	return uint32(lo) | uint32(hi)<<16, nil
}

// StoreWord writes a little-endian 32-bit word.
func (m *Memory) StoreWord(pa uint32, v uint32) error {
	if pa < m.size-3 && pa&(pageBytes-1) <= pageBytes-4 {
		p, err := m.page(pa, true)
		if err != nil {
			return err
		}
		p.SetWord(pa, v)
		return nil
	}
	if err := m.StoreHalf(pa, uint16(v)); err != nil {
		return err
	}
	return m.StoreHalf(pa+2, uint16(v>>16))
}

// Write copies b into physical memory starting at pa, page by page.
func (m *Memory) Write(pa uint32, b []byte) error {
	for len(b) > 0 {
		p, err := m.page(pa, true)
		if err != nil {
			return err
		}
		off := pa & (pageBytes - 1)
		n := copy(p.data[off:], b)
		p.gen++
		b = b[n:]
		pa += uint32(n)
	}
	return nil
}

// Read copies n bytes starting at pa into a fresh slice.
func (m *Memory) Read(pa uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		v, err := m.LoadByte(pa + uint32(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// TouchedPages returns the number of physical pages allocated so far;
// used by tests and capacity reporting.
func (m *Memory) TouchedPages() int { return len(m.pages) }

// PageBacked reports whether the page containing pa holds (or, for a
// lazily backed fork, would hold) nonzero-capable content. Untouched
// pages read as zero, so scanners (the invariant checker) can skip
// them without forcing allocation; backed-but-unmaterialized snapshot
// pages with content must NOT be skipped — they do not read as zero.
func (m *Memory) PageBacked(pa uint32) bool {
	if pa >= m.size {
		return false
	}
	pfn := pa >> pageShift
	if m.pages[pfn] != nil {
		return true
	}
	return m.backing != nil && m.backing.pages[pfn] != nil
}

// CorruptWord XORs mask into the word at pa, modeling a memory
// single-event upset, and returns the value before and after.
// internal/faultinject is the only intended caller. The store advances
// the page generation, so a corrupted code page re-decodes — the upset
// is architecturally visible exactly as a store would be.
func (m *Memory) CorruptWord(pa uint32, mask uint32) (before, after uint32, err error) {
	before, err = m.LoadWord(pa)
	if err != nil {
		return 0, 0, err
	}
	after = before ^ mask
	if err := m.StoreWord(pa, after); err != nil {
		return 0, 0, err
	}
	return before, after, nil
}
