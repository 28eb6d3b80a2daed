package core

import (
	"errors"
	"testing"

	"uexc/internal/cpu"
)

// TestWatchdogDetectsLivelock: a pure state cycle — no stores, no new
// code, no register drift — must be reported as a typed LivelockError
// well before the instruction budget, not ground out as ErrBudget.
func TestWatchdogDetectsLivelock(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(`
main:
spin:
	b     spin
	nop
`); err != nil {
		t.Fatal(err)
	}
	err = m.Run(5_000_000)
	var ll *cpu.LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("err = %v, want *LivelockError", err)
	}
	if !errors.Is(err, cpu.ErrLivelock) {
		t.Errorf("errors.Is(err, ErrLivelock) = false")
	}
	if ll.Insts >= 5_000_000 {
		t.Errorf("detected only at the budget (insts=%d); watchdog must fire early", ll.Insts)
	}
}

// TestWatchdogIgnoresProgressingLoop: a loop that still changes
// register state every iteration is progress, not livelock — it must
// run to the budget and be typed as a BudgetError.
func TestWatchdogIgnoresProgressingLoop(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(`
main:
	li    t0, 0
count:
	addiu t0, t0, 1
	b     count
	nop
`); err != nil {
		t.Fatal(err)
	}
	err = m.Run(400_000)
	var be *cpu.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if errors.Is(err, cpu.ErrLivelock) {
		t.Error("progressing loop misclassified as livelock")
	}
}

// TestWatchdogIgnoresStoringLoop: same, but progress is visible only
// through memory traffic (registers recur each iteration).
func TestWatchdogIgnoresStoringLoop(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadProgram(`
main:
	la    t1, cell
store_loop:
	lw    t0, 0(t1)
	addiu t0, t0, 1
	sw    t0, 0(t1)
	b     store_loop
	nop
	.align 4
cell:
	.word 0
`); err != nil {
		t.Fatal(err)
	}
	err = m.Run(400_000)
	if errors.Is(err, cpu.ErrLivelock) {
		t.Errorf("storing loop misclassified as livelock: %v", err)
	}
	if !errors.Is(err, cpu.ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

// TestWatchdogReusedAcrossCheckouts: a pooled machine keeps one
// watchdog and resets it for each checkout's run. No coverage may leak
// from one run into the next — a leaked PC would not count as new
// progress, moving the detection point — so the same livelock run on a
// reused machine must fail exactly as on a fresh one, and a
// progressing loop in between must still run to its budget, under all
// three engines.
func TestWatchdogReusedAcrossCheckouts(t *testing.T) {
	const spin = "main:\nspin:\n\tb     spin\n\tnop\n"
	const count = "main:\n\tli    t0, 0\ncount:\n\taddiu t0, t0, 1\n\tb     count\n\tnop\n"
	prev := cpu.DefaultEngine
	defer func() { cpu.DefaultEngine = prev }()
	for _, e := range []cpu.Engine{cpu.EngineJIT, cpu.EngineFast, cpu.EngineInterp} {
		cpu.DefaultEngine = e
		run := func(m *Machine, src string, budget uint64) error {
			t.Helper()
			if err := m.LoadProgram(src); err != nil {
				t.Fatal(err)
			}
			return m.Run(budget)
		}
		fresh, err := NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		want := run(fresh, spin, 5_000_000)
		if !errors.Is(want, cpu.ErrLivelock) {
			t.Fatalf("engine %d: fresh machine: %v, want livelock", e, want)
		}
		pool := &MachinePool{}
		for i, src := range []string{spin, count, spin, spin} {
			m, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			err = run(m, src, 400_000)
			if src == count {
				if !errors.Is(err, cpu.ErrBudget) {
					t.Errorf("engine %d checkout %d: progressing loop: %v, want budget", e, i, err)
				}
			} else if err == nil || err.Error() != want.Error() {
				t.Errorf("engine %d checkout %d: %v, want %v", e, i, err, want)
			}
			pool.Put(m)
		}
		if st := pool.Stats(); st.Forks != 1 {
			t.Errorf("engine %d: %d forks, want one machine reused", e, st.Forks)
		}
	}
}
