// Package snapshot is the machine snapshot / record-replay subsystem
// (DESIGN.md §16): point-in-time machine images with copy-on-write
// restore riding the mem.Page store-generation counters, a periodic
// recorder that tapes a run as a sequence of snapshots, and replay to
// an arbitrary instruction — the time-travel primitive behind
// divergence triage and the virtual-breakpoint debug sessions in
// internal/debug.
//
// The heavy lifting lives in the layers below (mem, tlb, cpu, kernel
// each capture/restore their own state; core composes them); this
// package owns the driving policy: where snapshots are taken, how a
// tape is indexed, and how a replay target is reached exactly.
package snapshot

import (
	"errors"
	"fmt"

	"uexc/internal/core"
	"uexc/internal/cpu"
)

// Tape is a recorded run: periodic snapshots indexed by retired
// instruction count, plus the run's outcome. Immutable after Record.
type Tape struct {
	points []*core.Snapshot // ascending by Insts(); [0] is the start
	every  uint64

	// Final run state (for triage without replaying to the end).
	EndInsts uint64
	Halted   bool
	Err      error // terminal simulator error (livelock, kernel panic), nil otherwise
}

// Snapshots returns the number of points on the tape.
func (t *Tape) Snapshots() int { return len(t.points) }

// Every returns the recording interval in instructions.
func (t *Tape) Every() uint64 { return t.every }

// Record runs the machine for at most budget further instructions,
// capturing a snapshot now and then after every `every` retired
// instructions, and returns the tape. The chunked run is exactly the
// run the machine would have performed in one Run call — cpu.Run stops
// precisely at its instruction bound, and capturing a snapshot has no
// architectural effect — so recording never perturbs the result.
//
// Recording composes with anything whose behaviour is a pure function
// of machine state (difftest/progen programs, plain program runs). A
// run driven by external host-side hooks with their own evolving state
// (an armed fault-injection campaign) records fine but cannot be
// REPLAYED exactly unless the caller re-arms equivalent hooks on the
// replayed machine — snapshots capture the machine, not the injector.
func Record(m *core.Machine, budget, every uint64) (*Tape, error) {
	if every == 0 {
		return nil, fmt.Errorf("snapshot: recording interval must be positive")
	}
	t := &Tape{every: every}
	t.points = append(t.points, m.Snapshot())
	c := m.K.CPU
	start := c.Insts
	for !c.Halted && c.Insts-start < budget {
		chunk := min(every, budget-(c.Insts-start))
		_, err := c.Run(chunk)
		var be *cpu.BudgetError
		if err != nil && !errors.As(err, &be) {
			// Livelock or a kernel hook failure: the run is over. Keep
			// the tape — replaying up to this point is exactly what
			// triage wants — and surface the error on it.
			t.Err = err
			break
		}
		if !c.Halted && c.Insts-start < budget {
			t.points = append(t.points, m.Snapshot())
		}
	}
	if t.Err == nil && c.Halted {
		// Surface any recorded machine check exactly like Kernel.Run
		// would have (a zero-instruction run only polls it).
		t.Err = m.K.Run(0)
	}
	t.EndInsts = c.Insts
	t.Halted = c.Halted
	return t, nil
}

// Nearest returns the latest snapshot at or before instruction n.
func (t *Tape) Nearest(n uint64) *core.Snapshot {
	best := t.points[0]
	for _, p := range t.points[1:] {
		if p.Insts() <= n {
			best = p
		} else {
			break
		}
	}
	return best
}

// ReplayTo forks the nearest snapshot at or before instruction n and
// re-executes forward until exactly n instructions have retired (or
// the run ends first). The returned machine is paused at the same
// architectural state the recorded run passed through at instruction n
// — registers, memory, TLB, statistics — ready for inspection.
func (t *Tape) ReplayTo(n uint64) (*core.Machine, error) {
	if n < t.points[0].Insts() {
		return nil, fmt.Errorf("snapshot: target %d precedes tape start %d", n, t.points[0].Insts())
	}
	m, err := core.Fork(t.Nearest(n))
	if err != nil {
		return nil, err
	}
	c := m.K.CPU
	if c.Insts < n {
		_, err := c.Run(n - c.Insts)
		var be *cpu.BudgetError
		if err != nil && !errors.As(err, &be) {
			return nil, fmt.Errorf("snapshot: replaying to %d: %w", n, err)
		}
	}
	return m, nil
}
