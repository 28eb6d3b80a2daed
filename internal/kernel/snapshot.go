package kernel

import (
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
// them. Only genuinely host-side state needs explicit fields here.
type State struct {
	cpu *cpu.State
	tlb *tlb.State
	mem *mem.MemState

	costs     Costs
	stats     Stats
	events    []Event
	traceEv   bool
	console   []byte
	exited    bool
	exitCode  uint32
	mcheck    error
	nextFrame uint32
	curr      int
	procs     []procState
}

// procState is the host-side half of one process, deep-copied so later
// mutation of the live Proc can never leak into the snapshot.
type procState struct {
	asid        uint8
	ptBase      uint32
	exited      bool
	exitCode    uint32
	ctx         pcb
	brk         uint32
	fexcMask    uint32
	fexcHandler uint32
	frameVA     uint32
	framePhys   uint32
	eager       bool
	watchMode   bool
	sigHandlers [32]uint32
	trampoline  uint32
	recursions  uint32
	forceKill   bool
	killReason  error
	subpages    map[uint32]uint8

	// ptScanGen is deliberately NOT captured: its entries memoize page
	// generations observed at validation time, which on a different
	// machine could alias a restored page's advanced generation while
	// holding different content. Restored processes start with a cold
	// memo and re-verify their page tables on the next SelfCheck.
}

// Insts returns the retired-instruction count at capture time.
func (st *State) Insts() uint64 { return st.cpu.Insts() }

// MemPages returns the number of memory pages recorded in the snapshot.
func (st *State) MemPages() int { return st.mem.Pages() }

// CaptureState snapshots the kernel and its hardware. Call it only at a
// run boundary (between Run/Step calls, never from inside an hcall).
func (k *Kernel) CaptureState() *State {
	st := &State{
		cpu:       k.CPU.CaptureState(),
		tlb:       k.TLB.CaptureState(),
		mem:       k.Mem.CaptureState(),
		costs:     k.Costs,
		stats:     k.Stats,
		traceEv:   k.TraceEvents,
		exited:    k.exited,
		exitCode:  k.exitCode,
		mcheck:    k.mcheck,
		nextFrame: k.nextFrame,
		curr:      k.curr,
	}
	if k.Events != nil {
		st.events = append([]Event(nil), k.Events...)
	}
	if k.console.Len() > 0 {
		st.console = append([]byte(nil), k.console.Bytes()...)
	}
	st.procs = make([]procState, len(k.procs))
	for i, p := range k.procs {
		ps := procState{
			asid: p.asid, ptBase: p.ptBase,
			exited: p.exited, exitCode: p.exitCode,
			ctx: p.ctx, brk: p.brk,
			fexcMask: p.fexcMask, fexcHandler: p.fexcHandler,
			frameVA: p.frameVA, framePhys: p.framePhys,
			eager: p.eager, watchMode: p.watchMode,
			sigHandlers: p.sigHandlers, trampoline: p.trampolineVA,
			recursions: p.recursions,
			forceKill:  p.forceKill, killReason: p.killReason,
		}
		if len(p.subpages) > 0 {
			ps.subpages = make(map[uint32]uint8, len(p.subpages))
			for vpn, bits := range p.subpages {
				ps.subpages[vpn] = bits
			}
		}
		st.procs[i] = ps
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
	c := k.CPU
	c.RestoreState(st.cpu)
	k.wireCPUHooks()

	k.Costs = st.costs
	k.Stats = st.stats
	k.Events = nil
	if st.events != nil {
		k.Events = append([]Event(nil), st.events...)
	}
	k.TraceEvents = st.traceEv
	k.console.Reset()
	k.console.Write(st.console)
	k.exited, k.exitCode = st.exited, st.exitCode
	k.mcheck = st.mcheck
	k.nextFrame = st.nextFrame
	k.curr = st.curr

	// Reuse the existing Proc allocations when the shapes line up (the
	// pool's restore-in-place path); the wholesale overwrite also
	// drops each proc's ptScanGen memo, per procState's capture rule.
	if len(k.procs) != len(st.procs) {
		k.procs = make([]*Proc, len(st.procs))
	}
	for i := range st.procs {
		ps := &st.procs[i]
		p := k.procs[i]
		if p == nil {
			p = new(Proc)
			k.procs[i] = p
		}
		*p = Proc{
			k:            k,
			asid:         ps.asid,
			ptBase:       ps.ptBase,
			exited:       ps.exited,
			exitCode:     ps.exitCode,
			ctx:          ps.ctx,
			brk:          ps.brk,
			fexcMask:     ps.fexcMask,
			fexcHandler:  ps.fexcHandler,
			frameVA:      ps.frameVA,
			framePhys:    ps.framePhys,
			eager:        ps.eager,
			watchMode:    ps.watchMode,
			sigHandlers:  ps.sigHandlers,
			trampolineVA: ps.trampoline,
			recursions:   ps.recursions,
			forceKill:    ps.forceKill,
			killReason:   ps.killReason,
		}
		if len(ps.subpages) > 0 {
			p.subpages = make(map[uint32]uint8, len(ps.subpages))
			for vpn, bits := range ps.subpages {
				p.subpages[vpn] = bits
			}
		}
		k.procs[i] = p
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
