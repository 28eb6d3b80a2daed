package cpu

// CaptureState snapshots the CPU: a copy of its State, immutable after
// capture and safe to share across machines. It must be called at a
// Step/Run boundary (never from inside a hook), where the transient
// redirect and pending-hook-error state is always quiescent.
//
// Everything outside State is deliberately NOT captured: micro-TLBs
// flush on restore, the predecode cache and translated blocks stay with
// the machine (they are keyed by physical page and revalidate against
// mem.Page.Gen / tlb.TLB.Gen, both of which the memory/TLB restores
// advance — see DESIGN.md §16). Hooks (OS, Inject, Trace), the
// watchdog, and any attached DebugGuard belong to the run, not the
// state, and are cleared on restore for the owner (the kernel, the
// pool, a debugger) to rewire.
func (c *CPU) CaptureState() *State {
	st := c.State
	return &st
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
	c.State = *st

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
