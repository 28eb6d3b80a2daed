package core

import (
	"fmt"
	"sync"
	"testing"

	"uexc/internal/cpu"
	"uexc/internal/kernel"
)

// runDigest executes a program on m and digests every observable the
// campaign fingerprints: outcome error text, console, cycle and
// instruction counts, and kernel stats.
func runDigest(t *testing.T, m *Machine, prog string) string {
	t.Helper()
	if err := m.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	runErr := m.Run(10_000_000)
	errText := ""
	if runErr != nil {
		errText = runErr.Error()
	}
	return fmt.Sprintf("err=%q console=%q stats=%+v cycles=%d insts=%d",
		errText, m.K.Console(), m.K.Stats, m.CPU().Cycles, m.CPU().Insts)
}

// bootedMachine is the reference the fork/restore lifecycle is held
// to: a kernel booted directly on fresh hardware, never snapshotted.
func bootedMachine(t *testing.T) *Machine {
	t.Helper()
	k, err := kernel.New()
	if err != nil {
		t.Fatal(err)
	}
	return &Machine{K: k}
}

// forEachEngine runs f with cpu.DefaultEngine set to each tier in turn.
func forEachEngine(t *testing.T, f func(e cpu.Engine)) {
	t.Helper()
	prev := cpu.DefaultEngine
	defer func() { cpu.DefaultEngine = prev }()
	for _, e := range []cpu.Engine{cpu.EngineJIT, cpu.EngineFast, cpu.EngineInterp} {
		cpu.DefaultEngine = e
		f(e)
	}
}

// checkPoolBalance asserts the pool's accounting identity: every
// checkout is a fork or a restore.
func checkPoolBalance(t *testing.T, pool *MachinePool) {
	t.Helper()
	if st := pool.Stats(); st.Gets != st.Forks+st.Restores {
		t.Errorf("Gets (%d) != Forks (%d) + Restores (%d)", st.Gets, st.Forks, st.Restores)
	}
}

// TestRestoreMatchesBootedMachine: a pooled machine restored after a
// run must be observationally identical to a directly booted one — the
// contract the campaign's machine pool depends on — under every
// engine. The first run deliberately takes exceptions and exercises the
// fast path so real kernel state (page tables, TLB entries, stats,
// u-area) is left behind for the restore to undo, and the SMC program
// runs first after it.
func TestRestoreMatchesBootedMachine(t *testing.T) {
	forEachEngine(t, func(e cpu.Engine) {
		var pool MachinePool
		m, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		_ = runDigest(t, m, simpleFastProg(20)) // leave residue
		for i, prog := range []string{smcProg, simpleFastProg(20), simpleUltrixProg(20)} {
			pool.Put(m)
			if m, err = pool.Get(); err != nil {
				t.Fatal(err)
			}
			if m.Prog != nil {
				t.Error("restore kept the loaded program")
			}
			if c := m.CPU(); c.Cycles != 0 || c.Insts != 0 || c.TeraMode {
				t.Errorf("restore left CPU state: cycles=%d insts=%d tera=%v", c.Cycles, c.Insts, c.TeraMode)
			}
			got := runDigest(t, m, prog)
			want := runDigest(t, bootedMachine(t), prog)
			if got != want {
				t.Errorf("engine %d program %d: restored machine diverged from booted\nrestored: %s\n  booted: %s", e, i, got, want)
			}
		}
		if st := pool.Stats(); st.Forks != 1 || st.Restores != 3 {
			t.Errorf("engine %d: stats = %+v, want one fork then three restores", e, st)
		}
		checkPoolBalance(t, &pool)
	})
}

// TestRestoreClearsHardwareDelivery: mode configuration must not leak
// from one pooled run into the next; the next run matches a booted
// machine's under every engine.
func TestRestoreClearsHardwareDelivery(t *testing.T) {
	forEachEngine(t, func(e cpu.Engine) {
		var pool MachinePool
		m, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		m.EnableHardwareDelivery(1 << 1)
		pool.Put(m)
		if m, err = pool.Get(); err != nil {
			t.Fatal(err)
		}
		if m.CPU().TeraMode || m.CPU().UserVector != 0 {
			t.Errorf("engine %d: restore kept hardware-delivery configuration", e)
		}
		if got, want := runDigest(t, m, smcProg), runDigest(t, bootedMachine(t), smcProg); got != want {
			t.Errorf("engine %d: restored machine diverged from booted\nrestored: %s\n  booted: %s", e, got, want)
		}
		checkPoolBalance(t, &pool)
	})
}

// TestDefaultEngineAfterBootSnapshot: the boot snapshot freezes the
// engine in force when it was captured, so an engine chosen afterwards
// must still reach NewMachine and both pool checkout paths.
func TestDefaultEngineAfterBootSnapshot(t *testing.T) {
	if _, err := BootSnapshot(); err != nil {
		t.Fatal(err)
	}
	var pool MachinePool
	forEachEngine(t, func(e cpu.Engine) {
		m, err := NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.CPU().Engine; got != e {
			t.Errorf("NewMachine engine = %d, want %d", got, e)
		}
		a, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		b, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		for _, pm := range []*Machine{a, b} {
			if got := pm.CPU().Engine; got != e {
				t.Errorf("pool checkout engine = %d, want %d (stats %+v)", got, e, pool.Stats())
			}
		}
		pool.Put(a)
		pool.Put(b)
	})
	if st := pool.Stats(); st.Forks != 2 || st.Restores != 4 {
		t.Errorf("stats = %+v, want both fork and restore paths exercised", st)
	}
	checkPoolBalance(t, &pool)
}

// TestMachinePoolRecycles: Get/Put round-trips reuse the machine and
// hand it back in the fresh-boot state.
func TestMachinePoolRecycles(t *testing.T) {
	var pool MachinePool
	m1, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	first := runDigest(t, m1, simpleFastProg(10))
	pool.Put(m1)

	m2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("pool forked a new machine while one was free")
	}
	if second := runDigest(t, m2, simpleFastProg(10)); second != first {
		t.Errorf("recycled run diverged:\n first: %s\nsecond: %s", first, second)
	}
	pool.Put(m2)

	// Two concurrent checkouts force a second fork.
	a, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("pool handed out the same machine twice")
	}
}

// TestAssembleUserCache: the same source yields the same shared
// program object, and distinct sources stay distinct.
func TestAssembleUserCache(t *testing.T) {
	p1, err := assembleUser(simpleFastProg(10))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := assembleUser(simpleFastProg(10))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical source assembled twice (cache miss)")
	}
	p3, err := assembleUser(simpleFastProg(11))
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("distinct sources shared one cache entry")
	}
}

// TestMachinePoolConcurrent hammers Get/Put from many goroutines (run
// under -race by make check): the pool must never hand the same
// machine to two holders at once, every recycled machine must pass the
// kernel's invariant SelfCheck after its restore, and the traffic
// counters must balance.
func TestMachinePoolConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("boots machines from many goroutines")
	}
	var pool MachinePool
	const (
		goroutines = 8
		rounds     = 25
	)

	var (
		mu    sync.Mutex
		inUse = map[*Machine]bool{}
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m, err := pool.Get()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: Get: %w", g, r, err)
					return
				}
				mu.Lock()
				if inUse[m] {
					mu.Unlock()
					errs <- fmt.Errorf("goroutine %d round %d: machine handed out twice", g, r)
					return
				}
				inUse[m] = true
				mu.Unlock()

				// A recycled machine must be in the NewMachine state: the
				// kernel invariants hold before any program is loaded.
				if err := m.K.SelfCheck(); err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: recycled machine fails SelfCheck: %w", g, r, err)
					return
				}
				// Dirty some rounds so the restore has real residue to undo.
				if r%3 == 0 {
					if err := m.LoadProgram(simpleFastProg(3)); err != nil {
						errs <- fmt.Errorf("goroutine %d round %d: load: %w", g, r, err)
						return
					}
					if err := m.Run(1_000_000); err != nil {
						errs <- fmt.Errorf("goroutine %d round %d: run: %w", g, r, err)
						return
					}
				}

				mu.Lock()
				delete(inUse, m)
				mu.Unlock()
				pool.Put(m)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := pool.Stats()
	if st.Gets != goroutines*rounds {
		t.Errorf("Gets = %d, want %d", st.Gets, goroutines*rounds)
	}
	checkPoolBalance(t, &pool)
	if st.Puts != st.Gets {
		t.Errorf("Puts = %d, want %d (every Get was returned)", st.Puts, st.Gets)
	}
	if st.Forks > goroutines {
		t.Errorf("Forks = %d, want <= %d (at most one fork per concurrent holder)", st.Forks, goroutines)
	}
}

// TestMachinePoolHarvest: Put invokes the Harvest hook with the
// machine's post-run counters still intact (the restore happens on the
// next Get, not on Put).
func TestMachinePoolHarvest(t *testing.T) {
	var pool MachinePool
	var harvested []uint64
	pool.Harvest = func(m *Machine) { harvested = append(harvested, m.CPU().Insts) }

	m, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	_ = runDigest(t, m, simpleFastProg(5))
	insts := m.CPU().Insts
	if insts == 0 {
		t.Fatal("run retired no instructions")
	}
	pool.Put(m)

	if len(harvested) != 1 || harvested[0] != insts {
		t.Fatalf("harvested = %v, want [%d]", harvested, insts)
	}
	st := pool.Stats()
	if st.Gets != 1 || st.Forks != 1 || st.Puts != 1 || st.Restores != 0 {
		t.Errorf("stats = %+v, want one fork, one put", st)
	}
}
