package cpu

// State is a point-in-time copy of the CPU's architectural and
// statistical state, built by CaptureState at a Step boundary. It is
// immutable after capture and safe to share across machines.
//
// Host-side acceleration state is deliberately NOT captured: micro-TLBs
// flush on restore, the predecode cache and translated blocks stay with
// the machine (they are keyed by physical page and revalidate against
// mem.Page.Gen / tlb.TLB.Gen, both of which the memory/TLB restores
// advance — see DESIGN.md §16). Hooks (OS, Inject, Trace), the
// watchdog, and any attached DebugGuard belong to the run, not the
// state, and are cleared on restore for the owner (the kernel, the
// pool, a debugger) to rewire.
type State struct {
	gpr        [32]uint32
	hi, lo     uint32
	pc, npc    uint32
	cp0        [32]uint32
	xt, xc, xb uint32

	teraMode       bool
	userVector     uint32
	fixedVector    uint32
	hwUTLBMod      bool
	engine         Engine
	injectUserOnly bool

	cost     CostModel
	counters Counters

	halted        bool
	prevWasBranch bool
}

// Insts returns the captured retired-instruction count (used by the
// record-replay driver to index snapshots by position in the stream).
func (st *State) Insts() uint64 { return st.counters.Insts }

// CaptureState snapshots the CPU. It must be called at a Step/Run
// boundary (never from inside a hook), where the transient redirect and
// pending-hook-error state is always quiescent.
func (c *CPU) CaptureState() *State {
	return &State{
		gpr: c.GPR, hi: c.HI, lo: c.LO,
		pc: c.PC, npc: c.NPC,
		cp0: c.CP0,
		xt:  c.XT, xc: c.XC, xb: c.XB,
		teraMode: c.TeraMode, userVector: c.UserVector, fixedVector: c.FixedVector,
		hwUTLBMod: c.HWUTLBMod,
		engine:    c.Engine, injectUserOnly: c.InjectUserOnly,
		cost: c.Cost, counters: c.Counters,
		halted: c.Halted, prevWasBranch: c.prevWasBranch,
	}
}

// RestoreState rewrites the CPU to match the snapshot. Hooks, the
// watchdog, and any DebugGuard are cleared (the caller rewires what the
// next run needs); the micro-TLBs are flushed and re-sync against the
// TLB generation on the next access; the predecode cache and its
// translated blocks are kept as allocations, because the accompanying
// memory restore advances every dirty page's generation and the guards
// revalidate on next use — a pooled machine skips re-decoding the
// shared kernel text on every checkout.
func (c *CPU) RestoreState(st *State) {
	c.GPR, c.HI, c.LO = st.gpr, st.hi, st.lo
	c.PC, c.NPC = st.pc, st.npc
	c.CP0 = st.cp0
	c.XT, c.XC, c.XB = st.xt, st.xc, st.xb
	c.TeraMode, c.UserVector, c.FixedVector = st.teraMode, st.userVector, st.fixedVector
	c.HWUTLBMod = st.hwUTLBMod
	c.Engine = st.engine
	c.InjectUserOnly = st.injectUserOnly
	c.Cost = st.cost
	c.Counters = st.counters
	c.Halted = st.halted
	c.prevWasBranch = st.prevWasBranch

	c.OS = nil
	c.Inject = nil
	c.Watchdog = nil
	c.Trace = nil
	c.Debug = nil
	c.redirect = false
	c.pendingHookErr = nil
	c.itlbClock, c.dtlbClock = 0, 0
	c.microGen = 0
	c.flushMicroTLB()
}
