package core

import "sync"

// MachinePool recycles Machines across simulator runs. Every checkout
// starts from the process-wide boot snapshot (BootSnapshot): a pooled
// machine is restored from it in place, copying only the pages its
// last run dirtied, and an empty pool forks it onto fresh hardware.
// The pool is safe for concurrent use by the parallel campaign
// workers; it holds at most as many machines as were ever
// simultaneously checked out, i.e. one per worker in steady state.
//
// Determinism contract: Get returns a machine whose observable state
// is identical to a freshly booted kernel, so runs are byte-identical
// whether their machine was pooled or fresh, and regardless of which
// worker previously used it. Callers that suspect a machine's
// integrity (e.g. after recovering a panic mid-run) should drop it on
// the floor instead of calling Put.
type MachinePool struct {
	// Harvest, when non-nil, is invoked by Put with the machine still in
	// its post-run state (counters intact, restore not yet performed),
	// on the caller's goroutine and outside the pool lock. The serving
	// layer uses it to accumulate simulator counters — deliveries, TLB
	// hits/misses, fast-path hits — across pooled runs before the next
	// restore wipes them. It must not retain the machine.
	Harvest func(*Machine)

	mu    sync.Mutex
	free  []*Machine
	stats PoolStats
}

// PoolStats counts pool traffic. Every checkout is a fork or a
// restore, so Gets == Forks + Restores; Restores/Gets is the pool hit
// rate the serving layer exports.
type PoolStats struct {
	Gets     uint64 // checkouts (Forks + Restores)
	Puts     uint64 // machines returned for reuse
	Forks    uint64 // empty-pool checkouts: the boot snapshot forked onto fresh hardware
	Restores uint64 // pooled checkouts: the boot snapshot restored in place
}

// Stats returns a snapshot of the pool counters.
func (p *MachinePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// EnableWarmBoot primes the boot snapshot and returns its error.
//
// Deprecated: every pool serves checkouts from the boot snapshot, so
// there is nothing to enable. It is kept only for the benchmark
// harness under bench/ and is deleted when that harness next changes.
func (p *MachinePool) EnableWarmBoot() error {
	_, err := BootSnapshot()
	return err
}

// Get returns a machine in the post-boot state: a pooled one restored
// from the boot snapshot, or a fork of it when the pool is empty.
func (p *MachinePool) Get() (*Machine, error) {
	boot, err := BootSnapshot()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	var m *Machine
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free = p.free[:n-1]
		p.stats.Restores++
	} else {
		p.stats.Forks++
	}
	p.mu.Unlock()
	if m == nil {
		if m, err = Fork(boot); err != nil {
			return nil, err
		}
	} else if _, err := m.Restore(boot); err != nil {
		return nil, err
	}
	return m.fromBoot(), nil
}

// Put returns a machine to the pool for reuse. The machine is restored
// on the next Get, so Put itself is cheap and may be called with the
// machine in any post-run state.
func (p *MachinePool) Put(m *Machine) {
	if m == nil {
		return
	}
	if p.Harvest != nil {
		p.Harvest(m)
	}
	p.mu.Lock()
	p.free = append(p.free, m)
	p.stats.Puts++
	p.mu.Unlock()
}
