package kernel

import (
	"maps"

	"uexc/internal/cpu"
	"uexc/internal/mem"
	"uexc/internal/tlb"
)

// State is a point-in-time copy of a whole kernel instance: CPU, TLB,
// memory contents, and every piece of host-side OS state (processes,
// stats, console, frame allocator). Built by CaptureState at a run
// boundary; immutable afterwards and safe to share across machines —
// one post-boot State backs every machine in the process.
//
// The simulated-memory snapshot transitively covers everything the
// kernel keeps IN the machine: page tables, trapframes, and the u-area
// all live at kseg0 physical addresses, so restoring memory restores
// them. The host-side half is the state values Kernel and Proc embed
// (hostState, and one procState per process) plus the reference-typed
// state (events, console, each process's subpages), which is
// deep-copied both ways: one snapshot is shared by every fork in the
// process, so aliasing any of it would be a data race.
type State struct {
	cpu *cpu.State
	tlb *tlb.State
	mem *mem.MemState

	host    hostState
	events  []Event
	console []byte
	procs   []procState
}

// MemPages returns the number of memory pages recorded in the snapshot.
func (st *State) MemPages() int { return st.mem.Pages() }

// cloneSubpages deep-copies a process's subpage map. An empty map
// becomes nil: SubpageProtect allocates on first use.
func cloneSubpages(m map[uint32]uint8) map[uint32]uint8 {
	if len(m) == 0 {
		return nil
	}
	return maps.Clone(m)
}

// CaptureState snapshots the kernel and its hardware. Call it only at a
// run boundary (between Run/Step calls, never from inside an hcall).
func (k *Kernel) CaptureState() *State {
	st := &State{
		cpu:  k.CPU.CaptureState(),
		tlb:  k.TLB.CaptureState(),
		mem:  k.Mem.CaptureState(),
		host: k.hostState,
	}
	if k.Events != nil {
		st.events = append([]Event(nil), k.Events...)
	}
	if k.console.Len() > 0 {
		st.console = append([]byte(nil), k.console.Bytes()...)
	}
	st.procs = make([]procState, len(k.procs))
	for i, p := range k.procs {
		st.procs[i] = p.procState
		st.procs[i].subpages = cloneSubpages(p.subpages)
	}
	return st
}

// RestoreState rewrites the kernel (and its hardware) to match the
// snapshot, copying only memory pages that have diverged from it (see
// mem.Memory.RestoreState for the copy-on-write rule). A restore is a
// fresh run boundary: the kernel's own CPU hooks are re-installed,
// injector hooks (CPU.Inject, TLB.InjectMiss) and the watchdog are
// dropped for the next run's owner to arm. It returns the number of
// memory pages that had to be copied.
func (k *Kernel) RestoreState(st *State) (int, error) {
	dirty, err := k.Mem.RestoreState(st.mem)
	if err != nil {
		return dirty, err
	}
	k.TLB.RestoreState(st.tlb)
	k.TLB.InjectMiss = nil // TLB.RestoreState keeps the hook; the run boundary must not
	k.CPU.RestoreState(st.cpu)
	k.wireCPUHooks()

	k.hostState = st.host
	k.Events = nil
	if st.events != nil {
		k.Events = append([]Event(nil), st.events...)
	}
	k.console.Reset()
	k.console.Write(st.console)

	// Reuse the existing Proc allocations when the shapes line up (the
	// pool's restore-in-place path); the wholesale overwrite also
	// drops each proc's ptScanGen memo, which is never captured.
	if len(k.procs) != len(st.procs) {
		k.procs = make([]*Proc, len(st.procs))
	}
	for i := range st.procs {
		p := k.procs[i]
		if p == nil {
			p = new(Proc)
			k.procs[i] = p
		}
		*p = Proc{k: k, procState: st.procs[i]}
		p.subpages = cloneSubpages(p.subpages)
	}
	k.Proc = k.procs[k.curr]
	return dirty, nil
}

// restoreShell packs the fixed structures of a whole machine — kernel,
// CPU, memory, TLB — into one allocation. Fork churns through
// thousands of machines per second in a pool; building each from a
// single ~3 KB allocation instead of four separate ones (plus two
// eager 4 KB page copies, now lazy) is most of what puts fork well
// under a boot. The inner pointers keep the shell alive as a unit,
// which matches the machine's lifetime exactly.
type restoreShell struct {
	k  Kernel
	c  cpu.CPU
	m  mem.Memory
	t  tlb.TLB
	p0 Proc     // boot process storage, rewritten by RestoreState
	pv [1]*Proc // single-process procs backing (the post-boot shape)
}

// NewForRestore builds a kernel shell on fresh hardware WITHOUT running
// the boot sequence; the caller must RestoreState into it before use.
// This is the fork-from-snapshot constructor: it skips the image load
// and process setup that New performs, leaving all content to the
// snapshot's lazy O(dirty pages) restore.
func NewForRestore() (*Kernel, error) {
	img, err := bootImage()
	if err != nil {
		return nil, err
	}
	sh := &restoreShell{}
	mem.Init(&sh.m, PhysMemSize)
	// Not cpu.Init: everything it sets beyond the bus wiring (cost model,
	// register reset, micro-TLB flush) is overwritten by the RestoreState
	// this constructor's contract requires before first use.
	sh.c.Mem, sh.c.TLB = &sh.m, &sh.t
	sh.k.CPU, sh.k.Mem, sh.k.TLB, sh.k.Image = &sh.c, &sh.m, &sh.t, img
	// Pre-wire the post-boot process shape so RestoreState's reuse path
	// rewrites sh.p0 in place instead of allocating.
	sh.pv[0] = &sh.p0
	sh.k.procs = sh.pv[:]
	sh.k.Proc = &sh.p0
	return &sh.k, nil
}
