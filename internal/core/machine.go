// Package core is the public face of the reproduction: a Machine that
// boots the simulated kernel, loads user programs written against the
// user runtime, and measures exception-handling behaviour under three
// delivery mechanisms:
//
//   - ModeUltrix: the conventional Unix signal path (§3.1),
//   - ModeFast: the paper's software fast path (§3.2),
//   - ModeHardware: the proposed Tera-style direct user vectoring (§2).
//
// The microbenchmark runners in measure.go reproduce the paper's
// Table 2 quantities; the phase counters reproduce Table 3.
package core

import (
	"fmt"
	"sync"

	"uexc/internal/arch"
	"uexc/internal/asm"
	"uexc/internal/cpu"
	"uexc/internal/kernel"
	"uexc/internal/userrt"
)

// Mode selects the exception delivery mechanism a benchmark exercises.
type Mode int

const (
	ModeUltrix Mode = iota
	ModeFast
	ModeHardware
)

// String names the mode as used in tables.
func (m Mode) String() string {
	switch m {
	case ModeUltrix:
		return "Ultrix"
	case ModeFast:
		return "FastExc"
	case ModeHardware:
		return "Hardware"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Machine is a booted simulated computer: kernel image in memory, CPU
// at the launch stub, one user process. Every Machine descends from
// the boot snapshot (BootSnapshot) by fork or restore; only the
// identity tests wrap a directly booted kernel as their reference.
type Machine struct {
	K    *kernel.Kernel
	Prog *asm.Program // assembled user program (runtime + user text)
}

// BootSnapshot returns the process-wide boot snapshot: the kernel is
// booted once per process (kernel.New) and captured immutably, and
// every Machine is a fork or a restore of that image. The boot is
// verified to leave zero simulator counters — an image with baked-in
// counts would be re-harvested into /metrics totals on every
// fork-run-put cycle (see TestPoolWarmHarvestTotals).
func BootSnapshot() (*Snapshot, error) { return bootSnapshot() }

var bootSnapshot = sync.OnceValues(func() (*Snapshot, error) {
	k, err := kernel.New()
	if err != nil {
		return nil, err
	}
	c := k.CPU
	if c.Insts != 0 || c.Cycles != 0 || c.TLB.Hits != 0 || c.TLB.Misses != 0 ||
		c.FastHits != 0 || (k.Stats != kernel.Stats{}) {
		return nil, fmt.Errorf("core: post-boot machine has nonzero counters; refusing boot snapshot")
	}
	return (&Machine{K: k}).Snapshot(), nil
})

// fromBoot re-applies the process-wide engine choice to a machine just
// forked or restored from the boot snapshot. The snapshot froze
// cpu.DefaultEngine as it stood at first use; a later change (the
// -engine knobs, the per-engine test loops) must still take effect.
func (m *Machine) fromBoot() *Machine {
	m.K.CPU.Engine = cpu.DefaultEngine
	return m
}

// NewMachine returns a post-boot machine: a fork of the boot snapshot
// onto fresh hardware. The CPU watchdog is armed by default: a machine
// that provably stops making progress (a pure state cycle — no stores,
// no new code) fails its Run with a typed *cpu.LivelockError instead
// of spinning out the whole budget.
func NewMachine() (*Machine, error) {
	boot, err := BootSnapshot()
	if err != nil {
		return nil, err
	}
	m, err := Fork(boot)
	if err != nil {
		return nil, err
	}
	m.fromBoot()
	m.K.CPU.Watchdog = cpu.NewWatchdog(0)
	return m, nil
}

// progCache caches assembled user images by source text. Programs are
// immutable after assembly (loading copies chunk bytes into simulated
// memory), so one *asm.Program is safely shared across machines and
// workers; campaign runs load the same three mode programs thousands
// of times and pay the assembler only once each.
var progCache sync.Map // full source string -> *asm.Program

func assembleUser(src string) (*asm.Program, error) {
	full := userrt.Prelude() + src
	if p, ok := progCache.Load(full); ok {
		return p.(*asm.Program), nil
	}
	p, err := asm.Assemble(full, kernel.UserTextBase)
	if err != nil {
		return nil, err
	}
	cached, _ := progCache.LoadOrStore(full, p)
	return cached.(*asm.Program), nil
}

// LoadProgram assembles the user runtime plus the given program text
// (which must define "main"), loads it, and points the CPU at process
// startup.
func (m *Machine) LoadProgram(src string) error {
	p, err := assembleUser(src)
	if err != nil {
		return fmt.Errorf("core: assembling user program: %w", err)
	}
	if err := m.K.LoadUserProgram(p); err != nil {
		return err
	}
	entry, ok := p.Symbol(userrt.SymStart)
	if !ok {
		return fmt.Errorf("core: user image missing %q", userrt.SymStart)
	}
	m.Prog = p
	m.K.LaunchUser(entry, kernel.UserStackTop-16)
	return nil
}

// SpawnProgram loads an additional user program (its own "main") as a
// new cooperatively scheduled process with its own ASID-tagged address
// space. Processes hand off with the yield system call; the machine
// halts when every process has exited.
func (m *Machine) SpawnProgram(src string) (*kernel.Proc, error) {
	p, err := assembleUser(src)
	if err != nil {
		return nil, fmt.Errorf("core: assembling spawned program: %w", err)
	}
	entry, ok := p.Symbol(userrt.SymStart)
	if !ok {
		return nil, fmt.Errorf("core: spawned image missing %q", userrt.SymStart)
	}
	return m.K.SpawnUser(p, entry, kernel.UserStackTop-16)
}

// Sym resolves a user-program symbol.
func (m *Machine) Sym(name string) uint32 { return m.Prog.MustSymbol(name) }

// KernelSym resolves a kernel-image symbol.
func (m *Machine) KernelSym(name string) uint32 { return m.K.Symbol(name) }

// CPU exposes the processor for statistics.
func (m *Machine) CPU() *cpu.CPU { return m.K.CPU }

// EnableHardwareDelivery turns on the proposed Tera-style hardware:
// exceptions whose codes are set in mask vector directly to user mode
// via the exception-target register, without entering the kernel.
func (m *Machine) EnableHardwareDelivery(mask uint32) {
	m.K.CPU.TeraMode = true
	m.K.CPU.UserVector = mask
}

// Run executes until process exit (or the instruction budget runs out).
// A nonzero exit caused by kernel escalation (recursive-exception kill)
// carries the recorded *kernel.MachineError cause chain, reachable via
// errors.Is/errors.As.
func (m *Machine) Run(maxInsts uint64) error {
	// Forked and restored machines defer watchdog construction to the
	// first Run — checkout latency is what the pool exists to shave —
	// so arm one here if the machine doesn't carry one yet. Armed or
	// not, execution is identical (Observe only reads machine state);
	// only livelock classification needs the detector.
	if m.K.CPU.Watchdog == nil {
		m.K.CPU.Watchdog = cpu.NewWatchdog(0)
	}
	if err := m.K.Run(maxInsts); err != nil {
		return err
	}
	if done, status := m.K.Exited(); done && status != 0 {
		for _, p := range m.K.Procs() {
			if reason := p.KillReason(); reason != nil {
				return fmt.Errorf("core: process exited with status %d (console: %q): %w",
					status, m.K.Console(), reason)
			}
		}
		return fmt.Errorf("core: process exited with status %d (console: %q)", status, m.K.Console())
	}
	return nil
}

// RunWithWatches single-steps the machine, invoking each watch callback
// whenever the CPU is about to execute the watched address, until exit.
func (m *Machine) RunWithWatches(maxInsts uint64, watches map[uint32]func(c *cpu.CPU)) error {
	c := m.K.CPU
	start := c.Insts
	for !c.Halted && c.Insts-start < maxInsts {
		if f, ok := watches[c.PC]; ok {
			f(c)
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	if !c.Halted {
		return &cpu.BudgetError{Budget: maxInsts, PC: c.PC}
	}
	if done, status := m.K.Exited(); done && status != 0 {
		return fmt.Errorf("core: process exited with status %d (console: %q)", status, m.K.Console())
	}
	return nil
}

// Micros converts cycles to microseconds at the simulated clock rate.
func Micros(cycles uint64) float64 { return cpu.CyclesToMicros(cycles) }

// ExcMaskBp and friends name commonly-claimed exception sets.
const (
	ExcMaskBp        = 1 << arch.ExcBp
	ExcMaskUnaligned = 1<<arch.ExcAdEL | 1<<arch.ExcAdES
	ExcMaskProt      = 1<<arch.ExcMod | 1<<arch.ExcTLBL | 1<<arch.ExcTLBS
	ExcMaskOverflow  = 1 << arch.ExcOv
)
