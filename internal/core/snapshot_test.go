package core

import (
	"testing"

	"uexc/internal/cpu"
)

// TestForkMatchesSource: a machine forked from a post-boot snapshot
// must be observationally identical to the machine the snapshot was
// taken from — the fork-from-boot contract the machine pool
// depends on (DESIGN.md §16).
func TestForkMatchesSource(t *testing.T) {
	src, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	snap := src.Snapshot()
	if snap.Pages() == 0 {
		t.Fatal("post-boot snapshot captured no pages")
	}

	fork, err := Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, prog := range []string{simpleFastProg(20), simpleUltrixProg(20)} {
		got := runDigest(t, fork, prog)
		want := runDigest(t, src, prog)
		if got != want {
			t.Errorf("program %d: fork diverged from source\n fork: %s\n  src: %s", i, got, want)
		}
		if _, err := fork.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreRewindsRun: restoring a snapshot after a full program run
// rewinds the machine to the capture point — the re-run is
// byte-identical, and the restore copies only the pages the run
// dirtied, not the whole address space.
func TestRestoreRewindsRun(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	first := runDigest(t, m, simpleUltrixProg(15))
	touched := m.K.Mem.TouchedPages()
	dirty, err := m.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if dirty == 0 {
		t.Fatal("post-run restore copied no pages")
	}
	// O(dirty pages): the restore copies at most what the run touched,
	// never the whole address space.
	if dirty > touched {
		t.Errorf("restore copied %d pages, but only %d were ever touched", dirty, touched)
	}
	if second := runDigest(t, m, simpleUltrixProg(15)); second != first {
		t.Errorf("restored re-run diverged:\n first: %s\nsecond: %s", first, second)
	}

	// An idle restore right after a restore+no-run touches nothing.
	if _, err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	dirty, err = m.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 0 {
		t.Errorf("idle restore copied %d pages, want 0", dirty)
	}
}

// TestForkIndependence: two forks of one snapshot share nothing — a
// run on one cannot perturb the other or the snapshot itself.
func TestForkIndependence(t *testing.T) {
	src, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	snap := src.Snapshot()

	f1, err := Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fork(snap)
	if err != nil {
		t.Fatal(err)
	}
	first := runDigest(t, f1, simpleFastProg(12))
	// f1's run dirtied its pages; f2 must still see pristine snapshot
	// content.
	if second := runDigest(t, f2, simpleFastProg(12)); second != first {
		t.Errorf("fork siblings diverged:\n f1: %s\n f2: %s", first, second)
	}
}

// TestPoolWarmHarvestTotals: each fork-run-put cycle harvests exactly
// that run's counters — the boot snapshot must not bake counter residue
// into every restored machine, or /metrics totals would double-count.
// (BootSnapshot's zero-counter assertion references this test.)
func TestPoolWarmHarvestTotals(t *testing.T) {
	var pool MachinePool
	var harvested []uint64
	pool.Harvest = func(m *Machine) { harvested = append(harvested, m.CPU().Insts) }

	var perRun []uint64
	for i := 0; i < 2; i++ {
		m, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.CPU().Insts; got != 0 {
			t.Fatalf("cycle %d: checkout carries %d retired insts", i, got)
		}
		_ = runDigest(t, m, simpleFastProg(5+i))
		perRun = append(perRun, m.CPU().Insts)
		pool.Put(m)
	}

	if len(harvested) != len(perRun) {
		t.Fatalf("harvested %d runs, want %d", len(harvested), len(perRun))
	}
	var got, want uint64
	for i := range perRun {
		if perRun[i] == 0 {
			t.Fatalf("run %d retired no instructions", i)
		}
		if harvested[i] != perRun[i] {
			t.Errorf("run %d harvested %d insts, want %d (double count?)", i, harvested[i], perRun[i])
		}
		got += harvested[i]
		want += perRun[i]
	}
	if got != want {
		t.Errorf("harvest total %d, want %d", got, want)
	}

	st := pool.Stats()
	if st.Gets != 2 || st.Forks != 1 || st.Restores != 1 {
		t.Errorf("stats = %+v, want a fork, then a restore of the returned machine", st)
	}

	// Drain the pool so the second Get must fork onto fresh hardware.
	m1, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("pool handed out the same machine twice")
	}
	if st := pool.Stats(); st.Forks != 2 || st.Gets != st.Forks+st.Restores {
		t.Errorf("empty-pool checkout did not fork (stats=%+v)", st)
	}
	if got := m2.CPU().Insts; got != 0 {
		t.Errorf("forked checkout carries %d retired insts", got)
	}
}

// TestPoolWarmMatchesCold: runs on pooled machines (the boot
// snapshot forked or restored) and on NewMachine forks are
// byte-identical to runs on a cold, directly booted kernel under every
// engine — the boot snapshot must be invisible to every campaign
// digest. Two machines stay checked out at once so both the fork and
// the restore path serve runs.
func TestPoolWarmMatchesCold(t *testing.T) {
	forEachEngine(t, func(e cpu.Engine) {
		var pool MachinePool
		// smcProg leads: the very first instructions a restored machine
		// executes patch code in place, so a stale decode surviving the
		// snapshot restore's generation advance would diverge here.
		progs := []string{smcProg, simpleFastProg(10), simpleUltrixProg(10), smcProg}
		for i, prog := range progs {
			want := runDigest(t, bootedMachine(t), prog)
			nm, err := NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			a, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			b, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			for j, m := range []*Machine{nm, a, b} {
				if got := runDigest(t, m, prog); got != want {
					t.Errorf("engine %d program %d machine %d: diverged from cold boot\n got: %s\nwant: %s", e, i, j, got, want)
				}
			}
			pool.Put(a)
			pool.Put(b)
		}
		if st := pool.Stats(); st.Forks != 2 || st.Restores == 0 {
			t.Errorf("engine %d: stats = %+v, want both checkout paths exercised", e, st)
		}
		checkPoolBalance(t, &pool)
	})
}

// smcProg copies a tiny thunk into a buffer, calls it, patches its
// first instruction in place, and calls it again — the second call
// must observe the patch. Run as a restored machine's first program it
// pins the §16 rule that a snapshot restore leaves no stale decodes
// behind: a wrong second return value trips the unhandled break.
const smcProg = `
main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, smc_src
	la    t1, smc_buf
	lw    t2, 0(t0)
	sw    t2, 0(t1)
	lw    t2, 4(t0)
	sw    t2, 4(t1)
	lw    t2, 8(t0)
	sw    t2, 8(t1)
	jalr  t1                  # first call: v1 = 7
	nop
	move  s0, v1
	lw    t2, 12(t0)
	sw    t2, 0(t1)           # patch in place: 7 -> 1234
	jalr  t1                  # must observe the patch
	nop
	addu  s0, s0, v1
	li    t3, 1241            # 7 + 1234
	beq   s0, t3, smc_done
	nop
	break                     # diverged: die loudly (unhandled)
smc_done:
` + progTail + `
smc_src:
	addiu v1, zero, 7
	jr    ra
	nop
	addiu v1, zero, 1234
	.align 8
smc_buf:
	.space 16
`
