package tlb

// State is a point-in-time copy of a TLB's architectural contents plus
// its statistics, built by CaptureState. It is immutable after capture
// and safe to share across machines.
type State struct {
	slots  [Entries]Entry
	rand   uint32
	hits   uint64
	misses uint64
}

// CaptureState snapshots the TLB: every slot, the replacement register,
// and the hit/miss counters. The mutation generation, the VPN index,
// the memo, and the InjectMiss hook are derived or host-side state and
// are not captured.
func (t *TLB) CaptureState() *State {
	return &State{slots: t.slots, rand: t.rand, hits: t.Hits, misses: t.Misses}
}

// RestoreState rewrites the TLB to match the snapshot. The installed
// InjectMiss hook is kept, and the mutation generation is advanced
// (never rewound) so micro-TLBs and
// translated blocks built against the pre-restore contents invalidate.
// The VPN index and memo rebuild lazily on the next Lookup.
func (t *TLB) RestoreState(st *State) {
	hook := t.InjectMiss
	gen := t.gen
	*t = TLB{}
	t.InjectMiss = hook
	t.gen = gen + 1
	t.slots = st.slots
	t.rand = st.rand
	t.Hits, t.Misses = st.hits, st.misses
}
