package kernel

import (
	"fmt"

	"uexc/internal/arch"
	"uexc/internal/asm"
	"uexc/internal/tlb"
)

// pcb holds a descheduled process's register context (the process
// control block of a cooperative scheduler: switches happen only at
// system calls, so the light syscall save set plus the live register
// file is the complete context).
type pcb struct {
	gpr        [32]uint32
	hi, lo     uint32
	xt, xc, xb uint32 // exception-target/condition registers (proposed hw)
	pc         uint32
	status     uint32
	v0         uint32 // pending syscall result to deliver on resume
}

// Proc is one simulated user process: address space, fast exception
// state, and Unix signal state.
type Proc struct {
	k *Kernel
	procState

	// ptScanGen memoizes SelfCheck's page-table scan: entry i holds
	// 1 + the Page.Gen under which page-table page i last passed, or 0
	// for never-validated. A page whose generation is unchanged has
	// identical PTEs, and the frame-pool bound only grows, so a pass
	// verdict stays valid until the page is written again. Allocated
	// lazily by SelfCheck; nil after process setup.
	//
	// It is deliberately outside procState, so never captured: its
	// entries memoize page generations observed at validation time,
	// which on a different machine could alias a restored page's
	// advanced generation while holding different content. Restored
	// processes start with a cold memo and re-verify their page tables
	// on the next SelfCheck.
	ptScanGen []uint64
}

// procState is the host-side half of one process: every Proc field a
// kernel snapshot carries. Proc embeds it, and the kernel's
// CaptureState/RestoreState copy it as one value, deep-copying the one
// reference-typed field (subpages) so neither side can mutate the
// other's.
type procState struct {
	asid   uint8
	ptBase uint32 // kseg0 base of this process's linear page table

	exited   bool
	exitCode uint32
	ctx      pcb

	brk uint32 // heap end (grown by SysSbrk)

	// Fast-exception state (mirrors the u-area words the asm reads).
	fexcMask    uint32
	fexcHandler uint32
	frameVA     uint32
	framePhys   uint32 // physical address of the pinned frame page
	eager       bool
	watchMode   bool // emulate-and-notify on protected subpages

	// Unix signal state.
	sigHandlers  [32]uint32
	trampolineVA uint32

	// Recursion-escalation state (see escalate.go).
	recursions uint32 // faults taken while a user handler was in progress
	forceKill  bool   // next postSignal must terminate regardless of handlers
	killReason error  // *MachineError cause chain when escalation killed us

	// Subpage protection: per-vpn bitmap of protected 1 KB subpages.
	subpages map[uint32]uint8 // bit i set = subpage i protected
}

func newProc(k *Kernel, asid uint8) *Proc {
	return &Proc{k: k, procState: procState{
		asid:     asid,
		ptBase:   PageTableBase + uint32(asid)*PTStride,
		brk:      UserDataBase,
		subpages: make(map[uint32]uint8),
	}}
}

// ASID returns the process's address-space identifier.
func (p *Proc) ASID() uint8 { return p.asid }

// Exited reports termination status.
func (p *Proc) Exited() (bool, uint32) { return p.exited, p.exitCode }

// KillReason returns the recorded *MachineError cause chain when the
// kernel killed this process (recursion escalation), or nil for normal
// exits and signal terminations.
func (p *Proc) KillReason() error { return p.killReason }

// pteAddr returns the kseg0 address of this process's PTE for vpn.
func (p *Proc) pteAddr(vpn uint32) uint32 { return p.ptBase + vpn*4 }

// pte reads the PTE for vpn. ok is false for out-of-range VPNs.
func (p *Proc) pte(vpn uint32) (uint32, bool) {
	if vpn >= UserPTEntries {
		return 0, false
	}
	return p.k.loadKernelWord(p.pteAddr(vpn)), true
}

func (p *Proc) setPTE(vpn, pte uint32) {
	if vpn >= UserPTEntries {
		// Callers bound vpn via pte() first, but corrupted state (fault
		// injection, bad badva) can still steer here; record a machine
		// check rather than scribble outside the page table.
		p.k.machineCheck(fmt.Sprintf("setPTE vpn %#x out of page table", vpn), ErrBadProc)
		return
	}
	p.k.storeKernelWord(p.pteAddr(vpn), pte)
}

// translate translates a user VA through this process's page table
// (host-side, no fault side effects). ok is false if unmapped or
// unallocated.
func (p *Proc) translate(va uint32) (uint32, bool) {
	pte, ok := p.pte(va >> arch.PageShift)
	if !ok || pte&tlb.LoV == 0 || pte&pteAlloc == 0 {
		return 0, false
	}
	return pte&tlb.LoPFNMask | va&(arch.PageSize-1), true
}

// Load maps and copies an assembled user image into this process's
// address space (impure: all pages writable), one page-table lookup and
// one physical write per page, and pre-maps a few stack pages so
// startup takes no demand faults.
func (p *Proc) Load(img *asm.Program) error {
	for _, ch := range img.Chunks {
		if ch.Addr >= arch.KSeg0Base || uint64(ch.Addr)+uint64(len(ch.Data)) > UserVATop {
			return fmt.Errorf("kernel: user chunk at %#x outside user space", ch.Addr)
		}
		for va, data := ch.Addr, ch.Data; len(data) > 0; {
			if pte, _ := p.pte(va >> arch.PageShift); pte&pteAlloc == 0 {
				if err := p.MapPage(va, true, true); err != nil {
					return err
				}
			}
			pa, ok := p.translate(va)
			if !ok {
				return fmt.Errorf("kernel: loading user page at %#x", va)
			}
			n := min(uint32(len(data)), arch.PageSize-va%arch.PageSize)
			if err := p.k.Mem.Write(pa, data[:n]); err != nil {
				return fmt.Errorf("kernel: loading user page at %#x: %w", va, err)
			}
			va, data = va+n, data[n:]
		}
	}
	for i := uint32(1); i <= 4; i++ {
		if err := p.MapPage(UserStackTop-i*arch.PageSize, true, true); err != nil {
			return err
		}
	}
	return nil
}

// allocFrame returns the PFN of a fresh zeroed physical frame from the
// kernel-wide pool.
func (p *Proc) allocFrame() (uint32, error) {
	k := p.k
	if k.nextFrame+arch.PageSize > PhysMemSize {
		return 0, fmt.Errorf("kernel: out of physical memory")
	}
	pfn := k.nextFrame >> arch.PageShift
	k.nextFrame += arch.PageSize
	return pfn, nil
}

// MapPage allocates (if needed) and maps the page containing va with
// the given writability; used by the loader and demand paging.
// writableRegion marks the page's region as writable underneath, which
// protection faults consult to distinguish user page protection from
// genuine access violations.
func (p *Proc) MapPage(va uint32, writable, writableRegion bool) error {
	vpn := va >> arch.PageShift
	pte, ok := p.pte(vpn)
	if !ok {
		return fmt.Errorf("kernel: va %#x outside user address space", va)
	}
	if pte&pteAlloc == 0 {
		pfn, err := p.allocFrame()
		if err != nil {
			return err
		}
		pte = pfn<<arch.PageShift | pteAlloc
	}
	pte |= tlb.LoV
	pte &^= tlb.LoD | pteWrUnder
	if writable {
		pte |= tlb.LoD
	}
	if writableRegion {
		pte |= pteWrUnder
	}
	p.setPTE(vpn, pte)
	p.k.TLB.InvalidatePage(vpn, p.asid)
	return nil
}

// Protect applies page-granular protection to [va, va+n), like
// mprotect. Pages must be mapped. Returns the number of pages changed.
func (p *Proc) Protect(va, n uint32, prot uint32) (int, error) {
	if n == 0 {
		return 0, nil
	}
	first := va >> arch.PageShift
	last := (va + n - 1) >> arch.PageShift
	changed := 0
	for vpn := first; vpn <= last; vpn++ {
		pte, ok := p.pte(vpn)
		if !ok || pte&pteAlloc == 0 {
			return changed, fmt.Errorf("kernel: protect of unmapped va %#x", vpn<<arch.PageShift)
		}
		pte &^= tlb.LoV | tlb.LoD
		if prot&ProtRead != 0 {
			pte |= tlb.LoV
		}
		if prot&ProtReadWrite == ProtReadWrite {
			pte |= tlb.LoD
		}
		p.setPTE(vpn, pte)
		p.k.TLB.InvalidatePage(vpn, p.asid)
		changed++
	}
	return changed, nil
}

// SubpageProtect write-protects (prot < ReadWrite) or releases 1 KB
// logical pages in [va, va+n). The hardware page is write-protected
// whenever any of its subpages is protected; stores to unprotected
// subpages are emulated by the kernel (§3.2.4).
func (p *Proc) SubpageProtect(va, n uint32, prot uint32) error {
	if va%arch.SubpageSize != 0 || n%arch.SubpageSize != 0 {
		return fmt.Errorf("kernel: subpage protect %#x+%#x not 1K aligned", va, n)
	}
	for off := uint32(0); off < n; off += arch.SubpageSize {
		sva := va + off
		vpn := sva >> arch.PageShift
		sub := sva >> arch.SubpageLog & (arch.SubPerPage - 1)
		pte, ok := p.pte(vpn)
		if !ok || pte&pteAlloc == 0 {
			return fmt.Errorf("kernel: subpage protect of unmapped va %#x", sva)
		}
		bits := p.subpages[vpn]
		if prot&ProtReadWrite == ProtReadWrite {
			bits &^= 1 << sub
		} else {
			bits |= 1 << sub
		}
		if bits == 0 {
			delete(p.subpages, vpn)
			pte |= tlb.LoD
			pte &^= pteSubpage
		} else {
			if p.subpages == nil { // forked procs start with no map
				p.subpages = make(map[uint32]uint8)
			}
			p.subpages[vpn] = bits
			pte &^= tlb.LoD
			pte |= pteSubpage
		}
		p.setPTE(vpn, pte)
		p.k.TLB.InvalidatePage(vpn, p.asid)
	}
	return nil
}

// SubpageProtected reports whether va's 1 KB logical page is protected.
func (p *Proc) SubpageProtected(va uint32) bool {
	bits := p.subpages[va>>arch.PageShift]
	return bits&(1<<(va>>arch.SubpageLog&(arch.SubPerPage-1))) != 0
}

// SetUBit grants or revokes user-level protection modification for
// va's page: the U bit is set in the PTE so refills carry it into the
// TLB, and in any current TLB entry.
func (p *Proc) SetUBit(va uint32, on bool) error {
	vpn := va >> arch.PageShift
	pte, ok := p.pte(vpn)
	if !ok || pte&pteAlloc == 0 {
		return fmt.Errorf("kernel: setubit on unmapped va %#x", va)
	}
	if on {
		pte |= tlb.LoU
	} else {
		pte &^= tlb.LoU
	}
	p.setPTE(vpn, pte)
	p.k.TLB.InvalidatePage(vpn, p.asid)
	return nil
}

// Sbrk grows the heap and returns the old break.
func (p *Proc) Sbrk(incr uint32) (uint32, error) {
	old := p.brk
	nb := p.brk + incr
	if nb > UserFrameVA {
		return 0, fmt.Errorf("kernel: sbrk beyond heap limit")
	}
	p.brk = nb
	return old, nil
}

// legitimateVA reports whether va belongs to a region the process may
// touch (used by the page-fault path to demand-zero or signal).
func (p *Proc) legitimateVA(va uint32) bool {
	switch {
	case va >= UserTextBase && va < UserDataBase:
		return true // text/static (mapped at load, but allow lazy)
	case va >= UserDataBase && va < p.brk:
		return true // heap
	case va >= UserStackTop-(1<<20) && va < UserStackTop:
		return true // 1 MB stack
	case va >= UserFrameVA && va < UserFrameVA+arch.PageSize:
		return p.framePhys != 0
	}
	return false
}

// regionWritable reports whether va's region permits writing at all
// (distinguishing user page protection, which is deliverable, from
// genuine violations). The user image is loaded impure — text pages
// writable — as on old Unix a.out formats, so every legitimate region
// is writable.
func (p *Proc) regionWritable(va uint32) bool {
	return va >= UserTextBase
}

// EnableFastExceptions implements the paper's enabling system call:
// handler is the user handler address, mask a bitmask of arch.Exc*
// codes, frameVA the user page for exception frames. The frame page is
// allocated, pinned (our frames never page out), and its physical
// address published to the first-level handler.
func (p *Proc) EnableFastExceptions(handler, mask, frameVA uint32) error {
	if frameVA%arch.PageSize != 0 {
		return fmt.Errorf("kernel: frame page %#x not page aligned", frameVA)
	}
	// Syscalls and coprocessor faults cannot be claimed (§3.2).
	if mask&(1<<arch.ExcSys|1<<arch.ExcCpU) != 0 {
		return fmt.Errorf("kernel: mask %#x claims unclaimable exceptions", mask)
	}
	if err := p.MapPage(frameVA, true, true); err != nil {
		return err
	}
	pte, _ := p.pte(frameVA >> arch.PageShift)
	p.fexcMask = mask
	p.fexcHandler = handler
	p.frameVA = frameVA
	p.framePhys = pte & tlb.LoPFNMask

	k := p.k
	// The u-area word stays blanked while a handler is in progress (a
	// signal handler may re-enable fast delivery mid-escalation); the
	// XRET notification republishes it.
	k.syncClaimMask()
	k.storeKernelWord(UAreaBase+UFexcHandler, handler)
	k.storeKernelWord(UAreaBase+UFrameVA, frameVA)
	k.storeKernelWord(UAreaBase+UFramePhys, arch.KSeg0Base+p.framePhys)
	return nil
}

// DisableFastExceptions clears the mask (frames remain mapped).
func (p *Proc) DisableFastExceptions() {
	p.fexcMask = 0
	p.k.storeKernelWord(UAreaBase+UFexcMask, 0)
}
