package core

import (
	"fmt"

	"uexc/internal/asm"
	"uexc/internal/kernel"
)

// Snapshot is a point-in-time copy of a whole Machine — CPU registers,
// TLB, kernel state, and page contents — built by Machine.Snapshot.
// It is immutable after capture and safe to share across goroutines:
// one boot snapshot (BootSnapshot) backs every Machine in the process.
//
// Restore semantics are copy-on-write against the mem.Page store
// generations the predecode and JIT caches already maintain: a page
// whose generation is unchanged since it last matched the snapshot is
// skipped, so restoring a machine costs O(dirty pages), and every page
// that IS rewritten advances its generation — the same invalidation
// signal a guest store emits — so micro-TLBs, predecoded instructions,
// and translated blocks revalidate through their existing guards.
// DESIGN.md §16 has the full format and interaction matrix.
type Snapshot struct {
	st   *kernel.State
	prog *asm.Program
}

// Insts returns the retired-instruction count at capture time (the
// record-replay driver indexes snapshots by it).
func (s *Snapshot) Insts() uint64 { return s.st.Insts() }

// Pages returns the number of memory pages the snapshot records.
func (s *Snapshot) Pages() int { return s.st.MemPages() }

// Snapshot captures the machine at a run boundary (never from inside a
// hook or mid-Step). The capture also primes the machine's own dirty
// tracking, so an immediate Restore of the same snapshot copies
// nothing.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{st: m.K.CaptureState(), prog: m.Prog}
}

// Restore rewrites the machine in place to match the snapshot, copying
// only pages that diverged from it. Injector hooks are dropped, and
// the watchdog is re-armed lazily by the next Run: a
// restored machine is observationally identical to one that reached
// the snapshot state by execution. Returns the number of pages copied.
func (m *Machine) Restore(s *Snapshot) (int, error) {
	dirty, err := m.K.RestoreState(s.st)
	if err != nil {
		return dirty, fmt.Errorf("core: restoring snapshot: %w", err)
	}
	m.Prog = s.prog
	return dirty, nil
}

// Fork builds a new machine from the snapshot on fresh hardware,
// skipping the boot sequence entirely — the snapshot's page contents
// are the only initialization. The forked machine is fully independent
// of the snapshot's source machine.
func Fork(s *Snapshot) (*Machine, error) {
	k, err := kernel.NewForRestore()
	if err != nil {
		return nil, err
	}
	m := &Machine{K: k}
	if _, err := m.Restore(s); err != nil {
		return nil, err
	}
	return m, nil
}
