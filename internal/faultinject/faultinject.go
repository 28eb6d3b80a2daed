// Package faultinject is a deterministic, seed-driven fault injector
// for the simulated machine. It models the hazards the paper's
// mechanisms must police — spurious synchronous exceptions, exception
// storms, faults raised inside a user-level handler (§2's recursion
// hazard), TLB single-event upsets, and memory corruption — through
// the hook points the hardware layers expose:
//
//   - cpu.CPU.Inject: a synchronous exception forced before the next
//     user instruction (spurious faults, storms, handler faults), with
//     a quiet horizon that lets the JIT run user blocks between
//     injection instants;
//   - tlb.TLB.InjectMiss / FlipBits: forced refill misses (the hook is
//     installed only while a miss burst is pending), flipped
//     permission/tag bits, stale-ASID entries;
//   - mem.Memory.CorruptWord: single-word upsets of user frames.
//
// Every decision is drawn from a math/rand stream seeded by the
// caller, and scheduling keys off the CPU's retired-instruction
// counter, so a (seed, program, mode) triple replays identically.
//
// The fault model is bounded deliberately:
//
//   - injection happens only in user mode — the kernel's calibrated
//     assembly paths assume the hardware delivers exceptions at
//     instruction boundaries of the interrupted user program;
//   - memory corruption is restricted to allocated user frames
//     ([kernel.FramePhysBase, FrameWatermark)) — page tables and the
//     u-area live below that floor, which is what lets the §6
//     invariants (Checker) remain assertable under fire;
//   - TLB flips never touch the PFN field (a wrong-translation store
//     is silent datapath corruption that no delivery mechanism can
//     observe; real designs protect the data array, not the CAM) and
//     never touch the U bit (the kernel's scrub heuristic treats
//     U-marked entries as legitimately divergent, §3.2.3).
package faultinject

import (
	"fmt"
	"math"
	"math/rand"

	"uexc/internal/arch"
	"uexc/internal/cpu"
	"uexc/internal/kernel"
	"uexc/internal/tlb"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	TLBFlip      Kind = iota // XOR a tag or permission bit of a live entry
	TLBForceMiss             // force the next few lookups to miss (glitched CAM)
	TLBStaleASID             // rewrite a live entry's ASID field
	Spurious                 // raise one synchronous exception out of thin air
	Storm                    // a burst of back-to-back spurious exceptions
	MemCorrupt               // flip one bit of one word in a user frame
	HandlerFault             // raise a fault while a user handler is in progress
	NumKinds
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case TLBFlip:
		return "tlb-flip"
	case TLBForceMiss:
		return "tlb-force-miss"
	case TLBStaleASID:
		return "tlb-stale-asid"
	case Spurious:
		return "spurious-exception"
	case Storm:
		return "exception-storm"
	case MemCorrupt:
		return "mem-corrupt"
	case HandlerFault:
		return "handler-fault"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event records one applied injection.
type Event struct {
	Kind   Kind
	Inst   uint64 // CPU retired-instruction count at injection
	Detail string
}

// The injection schedule: the first event lands in [warmup,
// warmup+gap) retired instructions, letting boot and scenario setup
// finish, and later events are spaced uniformly in [1, 2·gap], so gap
// is their mean spacing.
const (
	gap    = 900
	warmup = 2000
)

// Injector drives a fault plan against one machine. Attach installs
// it as the CPU's inject hook (cpu.InjectHooks); every injected event
// runs the invariant Checker and files any violation.
type Injector struct {
	k   *kernel.Kernel
	rng *rand.Rand

	queue  []Kind // guaranteed one-of-each kinds, shuffled, consumed first
	nextAt uint64 // instruction count of the next scheduled event
	storm  int    // remaining storm pulses
	misses int    // remaining forced TLB misses
	armed  bool   // handler-fault pending

	// Checker validates the DESIGN.md §6 invariants after every event.
	Checker *Checker
	// Events is the applied-injection log, in order.
	Events []Event
	// Exercised counts applied events per kind.
	Exercised [NumKinds]uint64
	// Violations collects invariant-checker failures observed after
	// events (the campaign treats any entry as a run failure).
	Violations []error
}

// Attach seeds an injector and installs it as the CPU's inject hook.
// The TLB's InjectMiss hook is installed only while a forced-miss burst
// is pending, so the micro-TLBs serve user pages between bursts. Call
// Detach to remove both. The handler-fault trigger is armed: it fires
// once, on the first user-mode instruction observed with the UEX
// recursion bit set.
func Attach(k *kernel.Kernel, seed int64) *Injector {
	return attach(k, rand.NewSource(seed))
}

// attach is Attach over an explicit random source.
func attach(k *kernel.Kernel, src rand.Source) *Injector {
	inj := &Injector{
		k:       k,
		rng:     rand.New(src),
		armed:   true,
		Checker: NewChecker(k),
	}
	// Guarantee at least one attempt of every schedulable kind per run,
	// in a seed-dependent order; afterwards kinds are drawn uniformly.
	base := []Kind{TLBFlip, TLBForceMiss, TLBStaleASID, Spurious, Storm, MemCorrupt}
	for _, i := range inj.rng.Perm(len(base)) {
		inj.queue = append(inj.queue, base[i])
	}
	inj.nextAt = warmup + uint64(inj.rng.Intn(gap))
	k.CPU.Inject = inj
	return inj
}

// Detach removes the injector's hooks, a pending miss burst included.
func (inj *Injector) Detach() {
	inj.k.CPU.Inject = nil
	inj.k.TLB.InjectMiss = nil
}

// note logs an applied event and runs the invariant checker.
func (inj *Injector) note(kind Kind, detail string) {
	inj.Exercised[kind]++
	inj.Events = append(inj.Events, Event{Kind: kind, Inst: inj.k.CPU.Insts, Detail: detail})
	if err := inj.Checker.Check(); err != nil {
		inj.Violations = append(inj.Violations,
			fmt.Errorf("after %s at inst %d: %w", kind, inj.k.CPU.Insts, err))
	}
}

// QuietUntil is the quiet horizon of cpu.InjectHooks: the Insts value
// below which Step returns nil without drawing from the RNG or
// changing any state. It mirrors Step's decision order: kernel mode is
// always quiet; a pending handler fault or storm pulse makes the next
// step act; a pending forced-miss burst keeps user code stepping until
// its last miss; otherwise nothing happens before the next scheduled
// event.
func (inj *Injector) QuietUntil(c *cpu.CPU) uint64 {
	switch {
	case c.KernelMode():
		return math.MaxUint64
	case inj.handlerFaultDue(c), inj.storm > 0, inj.misses > 0:
		return 0
	}
	return inj.nextAt
}

// handlerFaultDue reports whether Step raises the handler fault now.
func (inj *Injector) handlerFaultDue(c *cpu.CPU) bool {
	return inj.armed && c.CP0[arch.C0Status]&arch.SrUEX != 0
}

// Step is the cpu.InjectHooks step: consulted before every interpreted
// instruction.
func (inj *Injector) Step(c *cpu.CPU) *cpu.InjectedFault {
	if c.KernelMode() {
		return nil
	}
	// Handler fault: the first user instruction observed with the UEX
	// bit set is one executing inside a user-level exception handler —
	// fault it, exercising §2's recursion escalation.
	if inj.handlerFaultDue(c) {
		inj.armed = false
		badva := uint32(kernel.UserTextBase + 0x80)
		detail := "Mod inside user handler"
		if inj.rng.Intn(4) == 0 {
			// On the pinned exception-frame page: unrecoverable, the
			// kernel must kill rather than demote (escalate.go).
			badva = kernel.UserFrameVA + 0x10
			detail = "Mod on frame page inside user handler"
		}
		inj.note(HandlerFault, detail)
		return &cpu.InjectedFault{Code: arch.ExcMod, BadVAddr: badva, HasBV: true}
	}
	if inj.storm > 0 {
		inj.storm--
		return inj.spurious(Storm, "storm pulse")
	}
	if c.Insts < inj.nextAt {
		return nil
	}
	inj.nextAt = c.Insts + uint64(1+inj.rng.Intn(2*gap))
	kind := inj.pick()
	switch kind {
	case TLBFlip:
		inj.flip(c)
	case TLBForceMiss:
		inj.misses = 1 + inj.rng.Intn(6)
		inj.k.TLB.InjectMiss = inj.tlbMiss
		inj.note(TLBForceMiss, fmt.Sprintf("next %d lookups forced to miss", inj.misses))
	case TLBStaleASID:
		inj.stale(c)
	case MemCorrupt:
		inj.corrupt()
	case Spurious:
		return inj.spurious(Spurious, "spurious")
	case Storm:
		inj.storm = 2 + inj.rng.Intn(3)
		return inj.spurious(Storm, fmt.Sprintf("storm head (+%d pulses)", inj.storm))
	}
	return nil
}

// pick consumes the guaranteed queue first, then draws uniformly.
func (inj *Injector) pick() Kind {
	if len(inj.queue) > 0 {
		k := inj.queue[0]
		inj.queue = inj.queue[1:]
		return k
	}
	all := []Kind{TLBFlip, TLBForceMiss, TLBStaleASID, Spurious, Storm, MemCorrupt}
	return all[inj.rng.Intn(len(all))]
}

// requeue defers a kind whose preconditions were not met (e.g. no live
// TLB entries yet) to a later slot.
func (inj *Injector) requeue(k Kind) { inj.queue = append(inj.queue, k) }

// spurious builds an injected synchronous exception that every
// delivery mode can survive: Mod or TLBL with a bad address inside the
// user's own text or heap. Handlers resume and the re-executed
// instruction does not fault (there was never a real protection
// problem), or the bounded signal fallback terminates the process
// deterministically.
func (inj *Injector) spurious(kind Kind, detail string) *cpu.InjectedFault {
	code := arch.ExcMod
	if inj.rng.Intn(3) == 0 {
		code = arch.ExcTLBL
	}
	var badva uint32
	switch inj.rng.Intn(3) {
	case 0:
		badva = kernel.UserTextBase + uint32(inj.rng.Intn(64))*4
	case 1:
		badva = kernel.UserDataBase + uint32(inj.rng.Intn(4))*arch.PageSize + uint32(inj.rng.Intn(1024))*4
	default:
		badva = kernel.UserStackTop - 16 - uint32(inj.rng.Intn(256))*4
	}
	inj.note(kind, fmt.Sprintf("%s: %s at va %#x", detail, arch.ExcName(code), badva))
	return &cpu.InjectedFault{Code: code, BadVAddr: badva, HasBV: true}
}

// liveSlots returns the indices of non-empty TLB entries.
func (inj *Injector) liveSlots(global bool) []int {
	var idxs []int
	for i := 0; i < tlb.Entries; i++ {
		e := inj.k.TLB.Read(i)
		if e.Hi == 0 && e.Lo == 0 {
			continue
		}
		if !global && e.Global() {
			continue
		}
		idxs = append(idxs, i)
	}
	return idxs
}

// flip XORs one bit of a live entry: a VPN tag bit (CAM upset) or one
// of the V/D/G/N permission bits (data-array upset). PFN and U bits
// are excluded — see the package comment.
func (inj *Injector) flip(c *cpu.CPU) {
	idxs := inj.liveSlots(true)
	if len(idxs) == 0 {
		inj.requeue(TLBFlip)
		return
	}
	slot := idxs[inj.rng.Intn(len(idxs))]
	var hiMask, loMask uint32
	if inj.rng.Intn(2) == 0 {
		hiMask = 1 << (arch.PageShift + uint(inj.rng.Intn(14)))
	} else {
		bits := []uint32{tlb.LoV, tlb.LoD, tlb.LoG, tlb.LoN}
		loMask = bits[inj.rng.Intn(len(bits))]
	}
	before, after := c.TLB.FlipBits(slot, hiMask, loMask)
	inj.note(TLBFlip, fmt.Sprintf("slot %d: hi %#x->%#x lo %#x->%#x",
		slot, before.Hi, after.Hi, before.Lo, after.Lo))
}

// stale rewrites a live non-global entry's ASID field so it stops
// matching its owner (and may shadow another address space).
func (inj *Injector) stale(c *cpu.CPU) {
	idxs := inj.liveSlots(false)
	if len(idxs) == 0 {
		inj.requeue(TLBStaleASID)
		return
	}
	slot := idxs[inj.rng.Intn(len(idxs))]
	delta := uint32(1+inj.rng.Intn(63)) << tlb.HiASIDShft & tlb.HiASIDMask
	before, after := c.TLB.FlipBits(slot, delta, 0)
	inj.note(TLBStaleASID, fmt.Sprintf("slot %d: asid %d->%d",
		slot, before.ASID(), after.ASID()))
}

// corrupt flips one bit of one word in the allocated user-frame pool.
// Kernel structures live below FramePhysBase and are never touched.
func (inj *Injector) corrupt() {
	lo, hi := uint32(kernel.FramePhysBase), inj.k.FrameWatermark()
	if hi <= lo {
		inj.requeue(MemCorrupt)
		return
	}
	pa := lo + uint32(inj.rng.Intn(int((hi-lo)/4)))*4
	mask := uint32(1) << uint(inj.rng.Intn(32))
	before, after, err := inj.k.Mem.CorruptWord(pa, mask)
	if err != nil {
		inj.requeue(MemCorrupt)
		return
	}
	inj.note(MemCorrupt, fmt.Sprintf("pa %#x: %#x->%#x", pa, before, after))
}

// tlbMiss is the tlb.TLB.InjectMiss hook, installed while misses are
// pending: it forces this lookup to miss and removes itself with the
// burst's last miss.
func (inj *Injector) tlbMiss(va uint32, asid uint8) bool {
	inj.misses--
	if inj.misses == 0 {
		inj.k.TLB.InjectMiss = nil
	}
	return true
}
