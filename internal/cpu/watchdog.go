package cpu

import (
	"errors"
	"fmt"

	"uexc/internal/arch"
)

// ErrLivelock and ErrBudget classify Run failures for errors.Is.
var (
	ErrLivelock = errors.New("cpu: livelock")
	ErrBudget   = errors.New("cpu: instruction budget exhausted")
)

// LivelockError reports a detected livelock: the machine revisited an
// identical architectural state without any intervening store or new PC
// coverage, so no further progress is possible.
type LivelockError struct {
	PC     uint32 // anchor PC of the repeating state
	Insts  uint64 // retired instructions when detected
	Window uint64 // quiet instructions observed before detection
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("cpu: livelock detected at pc %#x after %d instructions (no progress for >= %d)",
		e.PC, e.Insts, e.Window)
}

func (e *LivelockError) Is(target error) bool { return target == ErrLivelock }

// BudgetError reports instruction-budget exhaustion without a detected
// state cycle (the machine was still making some kind of progress).
type BudgetError struct {
	Budget uint64
	PC     uint32
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("cpu: instruction budget %d exhausted at pc %#x", e.Budget, e.PC)
}

func (e *BudgetError) Is(target error) bool { return target == ErrBudget }

// Watchdog detects livelock during CPU.Run. The detector is exact (no
// false positives): it only fires when the complete register-visible
// machine state (PC, GPRs, HI/LO, CP0, XT/XC/XB) recurs at the same
// anchor PC with no store and no new PC coverage in between — a state
// cycle from which the single-core machine cannot escape. A loop that
// still decrements a counter, stores to memory, or reaches new code is
// never flagged; it runs until the instruction budget types it as a
// *BudgetError instead.
type Watchdog struct {
	// cover is the PC coverage: one bitmap per virtual page, a bit per
	// byte offset so every distinct PC (aligned or not) is its own
	// member. A page whose epoch is not the watchdog's holds stale bits
	// from an earlier run and is cleared on first touch, so Reset is
	// O(1) and a reused watchdog clears only the pages it touches again.
	cover map[uint32]*coverPage
	last  *coverPage // the most recently touched page, checked first
	epoch uint64

	quietSince uint64 // Insts at last sign of progress
	lastWrites uint64
	lastCmp    uint64
	anchor     uint32
	snap       uint64
	snapValid  bool
}

// coverPage is the PC-coverage bitmap of one virtual page.
type coverPage struct {
	vpn   uint32
	epoch uint64
	bits  [arch.PageSize / 64]uint64
}

// watchdogWindow is the number of quiet instructions (no new PC, no
// store) required before snapshot comparison begins, and the minimum
// spacing between comparisons.
const watchdogWindow = 50_000

// NewWatchdog returns a watchdog with no coverage or snapshot state.
func NewWatchdog() *Watchdog {
	return &Watchdog{cover: make(map[uint32]*coverPage)}
}

// maxRetainedPages bounds the coverage pages Reset keeps for reuse: a
// run that wandered over more code pages than any ordinary program
// does not pin them for the machine's lifetime.
const maxRetainedPages = 256

// Reset returns the watchdog to the state NewWatchdog builds, keeping
// its coverage pages as allocations, so a machine can re-arm one
// watchdog for every run.
func (w *Watchdog) Reset() {
	if len(w.cover) > maxRetainedPages {
		*w = *NewWatchdog()
		return
	}
	*w = Watchdog{cover: w.cover, last: w.last, epoch: w.epoch + 1}
}

// visit adds pc to the coverage and reports whether it is new.
func (w *Watchdog) visit(pc uint32) bool {
	vpn := pc >> arch.PageShift
	p := w.last
	if p == nil || p.vpn != vpn {
		if p = w.cover[vpn]; p == nil {
			p = &coverPage{vpn: vpn, epoch: w.epoch}
			w.cover[vpn] = p
		}
		w.last = p
	}
	if p.epoch != w.epoch {
		p.bits = [arch.PageSize / 64]uint64{}
		p.epoch = w.epoch
	}
	off := pc & (arch.PageSize - 1)
	bit := uint64(1) << (off & 63)
	if p.bits[off>>6]&bit != 0 {
		return false
	}
	p.bits[off>>6] |= bit
	return true
}

// Observe is called after every retired instruction (or taken
// exception); it returns a *LivelockError when a state cycle is proven.
func (w *Watchdog) Observe(c *CPU) error {
	pc := c.PC
	if w.visit(pc) {
		w.quietSince = c.Insts
		w.snapValid = false
		return nil
	}
	if c.MemWrites != w.lastWrites {
		w.lastWrites = c.MemWrites
		w.quietSince = c.Insts
		w.snapValid = false
		return nil
	}
	if c.Insts-w.quietSince < watchdogWindow {
		return nil
	}
	// Quiet: no new PC and no store for a full window. Compare full
	// state snapshots at a fixed anchor PC, at most once per window.
	if c.Insts-w.lastCmp < watchdogWindow && w.snapValid {
		if pc != w.anchor {
			return nil
		}
		s := w.hash(c)
		if s == w.snap {
			return &LivelockError{PC: pc, Insts: c.Insts, Window: watchdogWindow}
		}
		w.snap = s
		w.lastCmp = c.Insts
		return nil
	}
	// (Re-)anchor at the current PC; if the anchor is never revisited
	// the next window expiry re-anchors again.
	w.anchor = pc
	w.snap = w.hash(c)
	w.snapValid = true
	w.lastCmp = c.Insts
	return nil
}

// hash folds the register-visible machine state into 64 bits (FNV-1a
// over the words; collisions are astronomically unlikely and would only
// cause a spurious livelock report on an already-quiet machine).
func (w *Watchdog) hash(c *CPU) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint32) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	mix(c.PC)
	mix(c.NPC)
	for _, g := range c.GPR {
		mix(g)
	}
	mix(c.HI)
	mix(c.LO)
	mix(c.XT)
	mix(c.XC)
	mix(c.XB)
	for r, v := range c.CP0 {
		if r == arch.C0Random { // free-running; never part of a cycle check
			continue
		}
		mix(v)
	}
	return h
}
