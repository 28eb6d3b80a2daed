package core

import (
	"fmt"
	"math"
	"sort"

	"uexc/internal/arch"
	"uexc/internal/cpu"
	"uexc/internal/kernel"
	"uexc/internal/userrt"
)

// Timing holds the measured costs of one exception configuration, in
// cycles (convert with Micros). Deliver is fault to the first
// instruction of the C-level handler; Return is from the handler's
// return to the resumed application instruction; RoundTrip is fault to
// resumption (Table 2's row structure).
type Timing struct {
	N         int
	Deliver   float64
	Return    float64
	RoundTrip float64
}

// DeliverMicros etc. convert to the paper's units.
func (t Timing) DeliverMicros() float64   { return t.Deliver / cpu.ClockMHz }
func (t Timing) ReturnMicros() float64    { return t.Return / cpu.ClockMHz }
func (t Timing) RoundTripMicros() float64 { return t.RoundTrip / cpu.ClockMHz }

func (t Timing) String() string {
	return fmt.Sprintf("deliver %.1fµs return %.1fµs rt %.1fµs (n=%d)",
		t.DeliverMicros(), t.ReturnMicros(), t.RoundTripMicros(), t.N)
}

func mean(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s uint64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// probeBudget bounds every probe run; the measurement programs retire
// well under a million instructions.
const probeBudget = 30_000_000

// mark is one event on a probe timeline: the CPU about to execute a
// labelled PC (an arrival), or raising an exception in user mode (a
// raise, with its code, labelled when it faults at a labelled PC).
// Cycles and Insts are the CPU's counters at that instant.
type mark struct {
	label         string
	raise         bool
	code          uint32 // raises only
	cycles, insts uint64
}

// probe loads prog on a fresh machine, applies setup (if any), and
// single-steps it to exit, returning the timeline of arrivals at the
// labelled PCs and of user-mode raises. Labels name user symbols, or
// kernel symbols when the user image has no such name. Observation
// never changes the run: the timeline is read from the CPU's counters
// and its exception trace. Errors follow Machine.Run's chain.
func probe(prog string, labels []string, setup func(*Machine)) (*Machine, []mark, error) {
	m, err := NewMachine()
	if err != nil {
		return nil, nil, err
	}
	if err := m.LoadProgram(prog); err != nil {
		return nil, nil, err
	}
	if setup != nil {
		setup(m)
	}
	at := make(map[uint32][]string, len(labels))
	for _, l := range labels {
		pc, ok := m.Prog.Symbol(l)
		if !ok {
			if pc, ok = m.K.Image.Symbol(l); !ok {
				return nil, nil, fmt.Errorf("core: probe label %q names no user or kernel symbol", l)
			}
		}
		at[pc] = append(at[pc], l)
	}
	c := m.CPU()
	var tl []mark
	c.Trace = func(e cpu.Exception) {
		if e.User {
			k := mark{raise: true, code: e.Code, cycles: c.Cycles, insts: c.Insts}
			if ls := at[e.PC]; len(ls) > 0 {
				k.label = ls[0]
			}
			tl = append(tl, k)
		}
	}
	start := c.Insts
	for !c.Halted && c.Insts-start < probeBudget {
		for _, l := range at[c.PC] {
			tl = append(tl, mark{label: l, cycles: c.Cycles, insts: c.Insts})
		}
		if err := c.Step(); err != nil {
			return nil, nil, err
		}
	}
	if !c.Halted {
		return nil, nil, &cpu.BudgetError{Budget: probeBudget, PC: c.PC}
	}
	return m, tl, m.exitErr()
}

// timedLoopSpec describes one Table 2 microbenchmark: a program whose
// loop faults at bench_fault and resumes at bench_resume, and the user
// symbols that bracket its C-level handler.
type timedLoopSpec struct {
	prog         string
	handlerEntry string // user symbol of the C-level handler
	handlerExit  string // user symbol reached right after it returns
	codeMask     uint32 // exception codes that count as the benched fault
	setup        func(*Machine)
}

// timing folds a timeline into Table 2's row structure. A raise at
// fault whose code is in mask opens a window; arrivals at entry inside
// it time the delivery, the last arrival at exit starts the return,
// and the arrival at resume closes the round trip. A later raise at
// fault (a TLB refill after a protection change, say) restarts the
// clock only if its code also matches.
func timing(tl []mark, mask uint32, fault, entry, exit, resume string) Timing {
	var (
		raiseC, exitC          uint64
		pending                bool
		delivers, returns, rts []uint64
	)
	for _, k := range tl {
		switch {
		case k.raise:
			if k.label == fault && mask&(1<<k.code) != 0 {
				raiseC, pending = k.cycles, true
			}
		case !pending:
		case k.label == entry:
			delivers = append(delivers, k.cycles-raiseC)
		case k.label == exit:
			exitC = k.cycles
		case k.label == resume:
			rts = append(rts, k.cycles-raiseC)
			if exitC >= raiseC {
				returns = append(returns, k.cycles-exitC)
			}
			pending = false
		}
	}
	return Timing{N: len(rts), Deliver: mean(delivers), Return: mean(returns), RoundTrip: mean(rts)}
}

// measure probes one timed loop and folds its timeline.
func measure(spec timedLoopSpec) (Timing, error) {
	_, tl, err := probe(spec.prog,
		[]string{"bench_fault", "bench_resume", spec.handlerEntry, spec.handlerExit}, spec.setup)
	if err != nil {
		return Timing{}, err
	}
	t := timing(tl, spec.codeMask, "bench_fault", spec.handlerEntry, spec.handlerExit, "bench_resume")
	if t.N == 0 {
		return Timing{}, fmt.Errorf("core: benchmark recorded no exceptions")
	}
	return t, nil
}

// span returns the mean cycles from an arrival at from to the next
// arrival at to, over every such pair on the timeline.
func span(tl []mark, from, to string) (float64, int) {
	var startC uint64
	var spans []uint64
	for _, k := range tl {
		switch k.label {
		case from:
			startC = k.cycles
		case to:
			spans = append(spans, k.cycles-startC)
		}
	}
	return mean(spans), len(spans)
}

// simpleSpec is the breakpoint loop for one delivery mode (Table 2
// rows 1, 4, 5; Table 1's Ultrix column; ablation A; sensitivity).
func simpleSpec(mode Mode, n int) timedLoopSpec {
	switch mode {
	case ModeUltrix:
		return timedLoopSpec{
			prog:         simpleUltrixProg(n),
			handlerEntry: userrt.SymSkipSigHandler,
			handlerExit:  userrt.SymSigHandlerRet,
			codeMask:     ExcMaskBp,
		}
	case ModeHardware:
		return timedLoopSpec{
			prog:         simpleTeraProg(n),
			handlerEntry: userrt.SymSkipHandler,
			handlerExit:  "tera_handler_ret",
			codeMask:     ExcMaskBp,
			setup:        func(m *Machine) { m.EnableHardwareDelivery(ExcMaskBp) },
		}
	default:
		return timedLoopSpec{
			prog:         simpleFastProg(n),
			handlerEntry: userrt.SymSkipHandler,
			handlerExit:  userrt.SymFexcLowRet,
			codeMask:     ExcMaskBp,
		}
	}
}

// MeasureSimpleException measures breakpoint delivery under the given
// mode (Table 2 rows 1, 4, 5; Table 1's Ultrix column; ablation A).
func MeasureSimpleException(mode Mode, n int) (Timing, error) {
	return measure(simpleSpec(mode, n))
}

// DeliveryEvents runs one breakpoint of the Table 2 simple-exception
// loop (n=1) under mode, Ultrix or Fast, and returns its path from the
// fault to the resumed application in cycle order: the kernel's event
// log merged with the user-level milestones on the probe timeline
// (Figures 1 and 2). A user milestone sorts before a kernel event at
// the same cycle.
func DeliveryEvents(mode Mode) ([]kernel.Event, error) {
	if mode != ModeUltrix && mode != ModeFast {
		return nil, fmt.Errorf("core: trace supports Ultrix and Fast")
	}
	spec := simpleSpec(mode, 1)
	m, tl, err := probe(spec.prog, []string{"bench_fault", "bench_resume", spec.handlerEntry, spec.handlerExit},
		func(m *Machine) { m.K.TraceEvents = true })
	if err != nil {
		return nil, err
	}
	var (
		evs     []kernel.Event
		started bool
		fromC   uint64
		resumeC uint64 = math.MaxUint64
	)
	for _, k := range tl {
		what := ""
		switch {
		case k.raise && k.label == "bench_fault":
			started, fromC = true, k.cycles
			what = "hardware raises exception, vectors to kernel"
		case !started:
		case k.raise:
			what = "hardware raises exception (handler path syscall)"
		case k.label == spec.handlerEntry:
			what = "user-level handler entered"
		case k.label == spec.handlerExit:
			what = "user-level handler returns"
		case k.label == "bench_resume":
			what = "application resumes after faulting instruction"
			started, resumeC = false, k.cycles
		}
		if what != "" {
			evs = append(evs, kernel.Event{Cycle: k.cycles, What: what})
		}
	}
	for _, ke := range m.K.Events {
		if ke.Cycle >= fromC && ke.Cycle <= resumeC {
			evs = append(evs, ke)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })
	return evs, nil
}

// MeasureWriteProt measures write-protection fault delivery (Table 2
// row 2; ablation B covers eager on/off).
func MeasureWriteProt(mode Mode, eager bool, n int) (Timing, error) {
	switch mode {
	case ModeFast:
		entry := userrt.SymNullHandler
		if !eager {
			entry = "wp_chandler"
		}
		return measure(timedLoopSpec{
			prog:         writeProtFastProg(n, eager),
			handlerEntry: entry,
			handlerExit:  userrt.SymFexcLowRet,
			codeMask:     1 << arch.ExcMod,
		})
	case ModeUltrix:
		return measure(timedLoopSpec{
			prog:         writeProtUltrixProg(n),
			handlerEntry: "wp_sig_handler",
			handlerExit:  userrt.SymSigHandlerRet,
			codeMask:     1 << arch.ExcMod,
		})
	}
	return Timing{}, fmt.Errorf("core: write-prot benchmark supports Ultrix and Fast modes")
}

// SubpageTiming extends Timing with the cost of the transparent kernel
// emulation for stores to unprotected subpages (§3.2.4's indirect
// cost).
type SubpageTiming struct {
	Delivered Timing  // store to a protected 1 KB subpage
	EmulRT    float64 // cycles, store to an unprotected subpage (fault+emulate+resume)
	EmulN     int
}

// MeasureSubpage measures both subpage cases (Table 2 row 3) on one
// timeline: the protected store at bench_fault, then the emulated one
// from bench_fault2 to bench_resume2.
func MeasureSubpage(n int) (SubpageTiming, error) {
	m, tl, err := probe(subpageProg(n), []string{"bench_fault", "bench_resume", "bench_fault2", "bench_resume2",
		userrt.SymNullHandler, userrt.SymFexcLowRet}, nil)
	if err != nil {
		return SubpageTiming{}, err
	}
	const mod = 1 << arch.ExcMod
	del := timing(tl, mod, "bench_fault", userrt.SymNullHandler, userrt.SymFexcLowRet, "bench_resume")
	emul := timing(tl, mod, "bench_fault2", "", "", "bench_resume2")
	if del.N == 0 || emul.N == 0 {
		return SubpageTiming{}, fmt.Errorf("core: subpage benchmark recorded %d/%d events", del.N, emul.N)
	}
	// Verify the emulated stores actually landed.
	if got := m.userWord("emul_check"); got != 1 {
		return SubpageTiming{}, fmt.Errorf("core: emulated store verification failed: %#x", got)
	}
	return SubpageTiming{Delivered: del, EmulRT: emul.RoundTrip, EmulN: emul.N}, nil
}

// MeasureUnalignedMin measures the specialized minimal handler on
// unaligned loads: the §4.2.2 configuration whose fault + null C call
// + return costs 6 µs.
func MeasureUnalignedMin(n int) (Timing, error) {
	return measure(timedLoopSpec{
		prog:         unalignedMinProg(n),
		handlerEntry: userrt.SymSkipHandler,
		handlerExit:  userrt.SymFexcMinRet,
		codeMask:     1 << arch.ExcAdEL,
	})
}

// MeasureNullSyscall measures the getpid round trip in cycles (the
// paper's 12 µs comparison point).
func MeasureNullSyscall(n int) (float64, error) {
	_, tl, err := probe(nullSyscallProg(n), []string{"bench_fault", "bench_resume"}, nil)
	if err != nil {
		return 0, err
	}
	rt, got := span(tl, "bench_fault", "bench_resume")
	if got == 0 {
		return 0, fmt.Errorf("core: syscall benchmark recorded nothing")
	}
	return rt, nil
}

// userWord reads a word-sized user global by symbol (for result
// verification).
func (m *Machine) userWord(sym string) uint32 {
	va := m.Sym(sym)
	v, ok := m.K.ReadUserWord(va)
	if !ok {
		return 0xdeadbeef
	}
	return v
}

// PhaseCounts reproduces Table 3: dynamic instruction counts of the
// kernel fast path's six phases, measured by executing one simple
// exception.
type PhaseCounts struct {
	Decode   int
	Compat   int
	Save     int
	FPCheck  int
	TLBCheck int
	Vector   int
}

// Total sums all phases.
func (p PhaseCounts) Total() int {
	return p.Decode + p.Compat + p.Save + p.FPCheck + p.TLBCheck + p.Vector
}

// phaseLabels bound Table 3's phases: each phase runs from its kernel
// label to the next one, and the vector phase ends at the first user
// instruction after the kernel's rfe.
var phaseLabels = []string{"ph_decode", "ph_compat", "ph_save", "ph_fpcheck", "ph_tlbcheck", "ph_vector",
	userrt.SymFexcLow}

// MeasureKernelPhases runs one fast-path breakpoint and counts the
// instructions retired between successive phase-label arrivals after
// the benched fault (the warmup exception before it is excluded).
func MeasureKernelPhases() (PhaseCounts, error) {
	_, tl, err := probe(simpleFastProg(1), append([]string{"bench_fault"}, phaseLabels...), nil)
	if err != nil {
		return PhaseCounts{}, err
	}
	at := make(map[string]uint64, len(phaseLabels))
	started := false
	for _, k := range tl {
		if k.label == "bench_fault" {
			started = true
		} else if _, seen := at[k.label]; started && !k.raise && !seen {
			at[k.label] = k.insts
		}
	}
	if len(at) != len(phaseLabels) {
		return PhaseCounts{}, fmt.Errorf("core: phase benchmark reached %d of %d phase labels", len(at), len(phaseLabels))
	}
	phase := func(i int) int { return int(at[phaseLabels[i+1]] - at[phaseLabels[i]]) }
	return PhaseCounts{
		Decode:   phase(0),
		Compat:   phase(1),
		Save:     phase(2),
		FPCheck:  phase(3),
		TLBCheck: phase(4),
		Vector:   phase(5),
	}, nil
}
