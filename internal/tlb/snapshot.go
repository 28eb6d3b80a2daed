package tlb

// CaptureState snapshots the TLB: a copy of its State (every slot, the
// replacement register, and the hit/miss counters), immutable after
// capture and safe to share across machines.
func (t *TLB) CaptureState() *State {
	st := t.State
	return &st
}

// RestoreState rewrites the TLB to match the snapshot. The installed
// InjectMiss hook is kept, and the mutation generation is advanced
// (never rewound) so micro-TLBs and
// translated blocks built against the pre-restore contents invalidate.
// The VPN index and memo rebuild lazily on the next Lookup.
func (t *TLB) RestoreState(st *State) {
	*t = TLB{State: *st, gen: t.gen + 1, InjectMiss: t.InjectMiss}
}
