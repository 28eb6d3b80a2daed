package cpu

import (
	"errors"
	"testing"

	"uexc/internal/mem"
	"uexc/internal/tlb"
)

// TestDebugGuardFetchPause: a fetch guard pauses the CPU before the
// instruction has any architectural effect — no fetch, no retire, no
// accounting — and a guard-lifted step retires it exactly as if the
// debugger had never been attached.
func TestDebugGuardFetchPause(t *testing.T) {
	tm := newTortureMachine(t, DefaultEngine)
	g := NewDebugGuard()
	tm.c.Debug = g
	g.GuardPage(tm.c.PC, DebugFetch)

	pc, insts, cycles := tm.c.PC, tm.c.Insts, tm.c.Cycles
	if err := tm.c.Step(); err != nil {
		t.Fatalf("paused step returned error: %v", err)
	}
	if !tm.c.Halted || g.Hit == nil {
		t.Fatalf("guarded fetch did not pause (halted=%v hit=%v)", tm.c.Halted, g.Hit)
	}
	if g.Hit.PC != pc || g.Hit.VA != pc || g.Hit.Access != DebugFetch {
		t.Fatalf("hit = %+v, want pc=va=%#x access=fetch", *g.Hit, pc)
	}
	if tm.c.PC != pc || tm.c.Insts != insts || tm.c.Cycles != cycles {
		t.Fatalf("pause had architectural effect: pc=%#x insts=%d cycles=%d", tm.c.PC, tm.c.Insts, tm.c.Cycles)
	}

	// Step over with the guard lifted: the instruction retires normally.
	g.Hit = nil
	tm.c.Halted = false
	tm.c.Debug = nil
	if err := tm.c.Step(); err != nil {
		t.Fatal(err)
	}
	if tm.c.Insts != insts+1 {
		t.Fatalf("guard-lifted step retired %d insts, want 1", tm.c.Insts-insts)
	}
	// Re-attached, the next fetch from the same page pauses again.
	tm.c.Debug = g
	if err := tm.c.Step(); err != nil {
		t.Fatal(err)
	}
	if !tm.c.Halted || g.Hit == nil || g.Hit.PC != pc+4 {
		t.Fatalf("re-attached guard did not pause at %#x", pc+4)
	}
}

// TestDebugGuardDataWatch: a store-only guard on a data page lets loads
// from the page through and pauses exactly at the first store, before
// the store happens.
func TestDebugGuardDataWatch(t *testing.T) {
	tm := newTortureMachine(t, DefaultEngine)
	g := NewDebugGuard()
	tm.c.Debug = g
	g.GuardPage(0x10000, DebugStore)

	if _, err := tm.c.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if g.Hit == nil {
		t.Fatal("store watch never fired")
	}
	// The loop body loads 0(s1) first — store-only guards must not trap
	// it — then pauses at `sw s0, 8(s1)`.
	if g.Hit.VA != 0x10008 || g.Hit.Access != DebugStore {
		t.Fatalf("hit = %+v, want va=0x10008 access=store", *g.Hit)
	}
	writes := tm.c.MemWrites

	// Step over the paused store with the guard lifted, then resume:
	// the next pause is the same store one iteration later (the stores
	// to page 0x11000 are unguarded).
	g.Hit = nil
	tm.c.Halted = false
	tm.c.Debug = nil
	if err := tm.c.Step(); err != nil {
		t.Fatal(err)
	}
	if tm.c.MemWrites != writes+1 {
		t.Fatal("stepped-over store did not retire")
	}
	tm.c.Debug = g
	if _, err := tm.c.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if g.Hit == nil || g.Hit.VA != 0x10018 {
		t.Fatalf("second pause = %+v, want va=0x10018", g.Hit)
	}
}

// TestDebugGuardUnguardDrain: unguarding drains access bits and deletes
// the page entry when the last bit goes.
func TestDebugGuardUnguardDrain(t *testing.T) {
	g := NewDebugGuard()
	g.GuardPage(0x10000, DebugLoad|DebugStore)
	g.GuardPage(0x4000, DebugFetch)
	if n := g.GuardedPages(); n != 2 {
		t.Fatalf("guarded pages = %d, want 2", n)
	}
	g.UnguardPage(0x10004, DebugLoad) // same page, any offset
	if n := g.GuardedPages(); n != 2 {
		t.Fatalf("partial unguard dropped the page (pages=%d)", n)
	}
	g.UnguardPage(0x10000, DebugStore)
	if n := g.GuardedPages(); n != 1 {
		t.Fatalf("drained page not deleted (pages=%d)", n)
	}
	g.UnguardPage(0x4000, DebugFetch)
	if n := g.GuardedPages(); n != 0 {
		t.Fatalf("guard table not empty (pages=%d)", n)
	}
}

// TestDebugGuardJITStandDown: while a guard table is attached the JIT
// tier refuses to run (every instruction must pass the Step-level
// checks); detaching re-enables it.
func TestDebugGuardJITStandDown(t *testing.T) {
	tm := newTortureMachine(t, EngineJIT)
	tm.c.Debug = NewDebugGuard() // empty: never fires, but must gate the JIT

	var be *BudgetError
	if _, err := tm.c.Run(5_000); !errors.As(err, &be) {
		t.Fatalf("run: %v", err)
	}
	if tm.c.JITExecs != 0 {
		t.Fatalf("JIT retired %d blocks with a guard attached", tm.c.JITExecs)
	}
	tm.c.Debug = nil
	if _, err := tm.c.Run(5_000); !errors.As(err, &be) {
		t.Fatalf("run: %v", err)
	}
	if tm.c.JITExecs == 0 {
		t.Fatal("JIT never re-engaged after detach")
	}
}

// TestEngineToggleTortureSnapshotRestore extends the engine-toggle
// lockstep torture with snapshot/restore points: both machines are
// periodically captured (CPU+TLB+memory) and later rewound to the
// capture, which must be engine-exact — the restored digest equals the
// captured digest bit-for-bit, and lockstep continues through the full
// mutation schedule, including a self-modifying-code store issued
// immediately after each restore so stale predecode/JIT state keyed to
// pre-restore page generations would be caught at once.
func TestEngineToggleTortureSnapshotRestore(t *testing.T) {
	tog := newTortureMachine(t, EngineJIT)
	ref := newTortureMachine(t, EngineInterp)

	type point struct {
		mem    *mem.MemState
		tlb    *tlb.State
		cpu    *State
		digest string
	}
	capture := func(tm *tortureMachine) point {
		return point{tm.m.CaptureState(), tm.tl.CaptureState(), tm.c.CaptureState(), tm.snapshot()}
	}
	restore := func(tm *tortureMachine, p point) {
		t.Helper()
		if _, err := tm.m.RestoreState(p.mem); err != nil {
			t.Fatalf("mem restore: %v", err)
		}
		tm.tl.RestoreState(p.tlb)
		tm.c.RestoreState(p.cpu)
	}

	type pair struct{ tog, ref point }
	var snap *pair
	restores := 0

	engines := []Engine{EngineJIT, EngineFast, EngineInterp}
	rng := uint32(0x2545f491)
	const chunk = 97
	for r := uint32(0); r < 400; r++ {
		rng = rng*1664525 + 1013904223
		tog.c.Engine = engines[rng>>16%3]
		for _, tm := range []*tortureMachine{tog, ref} {
			_, err := tm.c.Run(chunk)
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("round %d: run ended: %v (pc=%#x)", r, err, tm.c.PC)
			}
		}
		if f, s := tog.snapshot(), ref.snapshot(); f != s {
			t.Fatalf("round %d: divergence\ntoggled: %s\nref:     %s", r, f, s)
		}

		switch {
		case r%101 == 13:
			snap = &pair{tog: capture(tog), ref: capture(ref)}
		case r%101 == 60 && snap != nil:
			restore(tog, snap.tog)
			restore(ref, snap.ref)
			restores++
			if got := tog.snapshot(); got != snap.tog.digest {
				t.Fatalf("round %d: restore not engine-exact\ngot:  %s\nwant: %s", r, got, snap.tog.digest)
			}
			if got := ref.snapshot(); got != snap.ref.digest {
				t.Fatalf("round %d: reference restore drifted\ngot:  %s\nwant: %s", r, got, snap.ref.digest)
			}
			// SMC in the very first post-restore instant: the restored
			// code page's generation must already have advanced past
			// every cached decode/translation.
			for _, tm := range []*tortureMachine{tog, ref} {
				pg := tm.m.PageRef(tm.smcPA)
				pg.SetWord(tm.smcPA, pg.Word(tm.smcPA)^(1<<16))
			}
		}
		tog.tortureMutate(r)
		ref.tortureMutate(r)
	}
	if restores < 3 {
		t.Fatalf("schedule exercised only %d restores", restores)
	}
	if tog.c.JITExecs == 0 {
		t.Error("toggle schedule never retired a translated block")
	}
	if tog.c.GPR[22] == 0 { // s6: exception count
		t.Error("torture schedule provoked no exceptions")
	}
}
