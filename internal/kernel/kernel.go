package kernel

import (
	"bytes"
	"fmt"
	"sync"

	"uexc/internal/arch"
	"uexc/internal/asm"
	"uexc/internal/cpu"
	"uexc/internal/mem"
	"uexc/internal/tlb"
)

// Event records one step of exception processing for the Figure 1 / 2
// style traces.
type Event struct {
	Cycle uint64
	What  string
}

// Stats tallies kernel activity.
type Stats struct {
	FastDeliveries   uint64 // exceptions vectored to the user handler by the fast path
	UnixDeliveries   uint64 // signals delivered via the Ultrix path
	PageFaults       uint64 // demand-zero fills
	SubpageEmuls     uint64 // loads/stores emulated on unprotected subpages
	EagerAmplifies   uint64
	Syscalls         uint64
	Terminations     uint64
	ProtFaultsToUser uint64
	UTLBEmuls        uint64 // UTLBMOD opcodes emulated in software (§3.2.3)
	WatchHits        uint64 // watched-subpage stores emulated and notified
	Switches         uint64 // process context switches

	// Recursion-escalation tallies (§2's UEX-bit hazard handling).
	UEXRecursions  uint64 // faults observed while a user handler was in progress
	FastFallbacks  uint64 // exception classes demoted Fast→Ultrix after recursion
	RecursionKills uint64 // processes killed for unrecoverable recursion
	TLBScrubs      uint64 // TLB entries dropped for contradicting the page table
}

// Kernel is the simulated operating system instance: one CPU, the
// host-side "C" layer, and up to MaxProcs cooperatively scheduled
// processes with ASID-tagged address spaces. The paper's measurements
// are single-process; additional processes exercise the tagged-TLB
// requirements of §2.2.
type Kernel struct {
	CPU *cpu.CPU
	Mem *mem.Memory
	TLB *tlb.TLB

	Image *asm.Program // assembled kernel, for symbol lookup

	// Proc is the CURRENT process (whose u-area is switched in).
	Proc  *Proc
	procs []*Proc

	hostState

	Events  []Event
	console bytes.Buffer
}

// hostState is the kernel's scalar host-side state: every Kernel field
// a snapshot carries by value. Kernel embeds it, and
// CaptureState/RestoreState copy it as one value. The reference-typed
// state (procs, Events, the console buffer) stays outside it, because
// a snapshot must deep-copy it.
type hostState struct {
	curr      int    // index of Proc in procs
	nextFrame uint32 // kernel-wide physical frame allocator

	Costs Costs
	Stats Stats

	// TraceEvents enables Event recording (used for the Figure 1/2
	// renderings; off by default to keep long runs lean).
	TraceEvents bool

	exited   bool
	exitCode uint32

	// mcheck is the first recorded kernel-internal fault (see
	// machineCheck in errors.go); surfaced at the next hcall boundary.
	mcheck error
}

// The kernel attaches itself to the CPU as one cpu.OSHooks interface
// value (see wireCPUHooks): taking the three hook method values
// instead would allocate three closures on every reboot, restore, and
// fork. These exported wrappers are that interface's implementation.

// HCall implements cpu.OSHooks (the HCALL upcall).
func (k *Kernel) HCall(c *cpu.CPU, code uint32) error { return k.hcall(c, code) }

// OnUEXRecursion implements cpu.OSHooks (§2 double-fault indication).
func (k *Kernel) OnUEXRecursion(e cpu.Exception) { k.onUEXRecursion(e) }

// OnUEXClear implements cpu.OSHooks (user handler completion).
func (k *Kernel) OnUEXClear() { k.onUEXClear() }

// wireCPUHooks (re-)attaches the kernel to its CPU, allocation-free.
func (k *Kernel) wireCPUHooks() { k.CPU.OS = k }

// bootImage assembles and verifies the kernel image exactly once per
// process. The image is immutable after assembly (loaders copy its
// chunk bytes into simulated memory; everything else is symbol reads),
// so one *asm.Program is safely shared by every machine on every
// worker — re-assembling ~identical source per seed was pure waste in
// campaign runs.
var bootImage = sync.OnceValues(func() (*asm.Program, error) {
	img, err := asm.Assemble(KernelSource(), KernelTextBase)
	if err != nil {
		return nil, fmt.Errorf("kernel: assembling image: %w", err)
	}
	// The host-side layer jumps to these labels at runtime; verify them
	// at boot so later Symbol() lookups of them cannot fail.
	for _, sym := range []string{"kern_entry", "ultrix_restore", "gen_vec", "utlb_vec"} {
		if _, ok := img.Symbol(sym); !ok {
			return nil, fmt.Errorf("kernel: image missing required symbol %q", sym)
		}
	}
	for _, ch := range img.Chunks {
		if ch.Addr < arch.KSeg0Base {
			return nil, fmt.Errorf("kernel: image chunk at user address %#x", ch.Addr)
		}
	}
	return img, nil
})

// New boots a kernel on fresh hardware: loads the image (assembled
// once per process; see bootImage), points the refill handler at the
// page table, and creates the boot process. This is the reference boot
// sequence; core runs it once per process and forks every machine from
// its snapshot.
func New() (*Kernel, error) {
	img, err := bootImage()
	if err != nil {
		return nil, err
	}
	m := mem.New(PhysMemSize)
	t := &tlb.TLB{}
	c := cpu.New(m, t)

	k := &Kernel{CPU: c, Mem: m, TLB: t, Image: img, hostState: hostState{Costs: DefaultCosts()}}
	k.wireCPUHooks()
	for _, ch := range img.Chunks {
		if err := m.Write(arch.KSegPhys(ch.Addr), ch.Data); err != nil {
			return nil, fmt.Errorf("kernel: loading image: %w", err)
		}
	}

	// Context register: PTE base for the UTLB refill handler.
	c.CP0[arch.C0Context] = PageTableBase

	k.nextFrame = FramePhysBase
	k.Proc = newProc(k, 0)
	k.procs = []*Proc{k.Proc}

	// Publish u-area fields the assembly reads.
	k.storeKernelWord(UAreaBase+UKStack, KStackTop)
	k.storeKernelWord(UAreaBase+UFexcMask, 0)
	k.storeKernelWord(UAreaBase+UFexcHandler, 0)
	k.storeKernelWord(UAreaBase+UFramePhys, 0)
	k.storeKernelWord(UAreaBase+UFrameVA, 0)
	return k, nil
}

// Procs returns all processes (index 0 is the boot process).
func (k *Kernel) Procs() []*Proc { return k.procs }

// Console returns everything the user program wrote via SysWrite.
func (k *Kernel) Console() string { return k.console.String() }

// Exited reports whether the user process has exited, and its status.
func (k *Kernel) Exited() (bool, uint32) { return k.exited, k.exitCode }

// Symbol resolves a kernel-image symbol. It panics on unknown names:
// the kernel image is baked-in source whose runtime-critical labels are
// verified at boot, so a miss here is a programming error in the
// simulator itself, not a machine condition.
func (k *Kernel) Symbol(name string) uint32 { return k.Image.MustSymbol(name) }

func (k *Kernel) event(what string) {
	if k.TraceEvents {
		k.Events = append(k.Events, Event{Cycle: k.CPU.Cycles, What: what})
	}
}

// eventf is event with lazy formatting: campaigns run with tracing off,
// and exception paths are hot enough that eager fmt.Sprintf at every
// call site shows up in profiles.
func (k *Kernel) eventf(format string, args ...any) {
	if k.TraceEvents {
		k.Events = append(k.Events, Event{Cycle: k.CPU.Cycles, What: fmt.Sprintf(format, args...)})
	}
}

// --- host-side physical/virtual memory helpers ---------------------

// storeKernelWord writes a word at a kseg0 virtual address. A physical
// fault here is a machine check (recorded, not panicked: corrupted
// per-process state can steer these accesses, and the machine must die
// with a cause chain rather than take the simulator down).
func (k *Kernel) storeKernelWord(kva, v uint32) {
	if err := k.Mem.StoreWord(arch.KSegPhys(kva), v); err != nil {
		k.machineCheck(fmt.Sprintf("store kernel word %#x", kva), err)
	}
}

// loadKernelWord reads a word at a kseg0 virtual address; faults are
// machine checks and read as zero.
func (k *Kernel) loadKernelWord(kva uint32) uint32 {
	v, err := k.Mem.LoadWord(arch.KSegPhys(kva))
	if err != nil {
		k.machineCheck(fmt.Sprintf("load kernel word %#x", kva), err)
		return 0
	}
	return v
}

// loadUserWord reads a word from user space via the page table.
func (k *Kernel) loadUserWord(va uint32) (uint32, bool) {
	pa, ok := k.Proc.translate(va)
	if !ok {
		return 0, false
	}
	v, err := k.Mem.LoadWord(pa)
	return v, err == nil
}

// storeUserWord writes a word to user space via the page table,
// ignoring page protection (the kernel has implicit access, as the
// paper notes for subpage emulation).
func (k *Kernel) storeUserWord(va, v uint32) bool {
	pa, ok := k.Proc.translate(va)
	if !ok {
		return false
	}
	return k.Mem.StoreWord(pa, v) == nil
}

// loadUserByte / storeUserByte are byte-granularity variants.
func (k *Kernel) loadUserByte(va uint32) (uint8, bool) {
	pa, ok := k.Proc.translate(va)
	if !ok {
		return 0, false
	}
	v, err := k.Mem.LoadByte(pa)
	return v, err == nil
}

func (k *Kernel) storeUserByte(va uint32, v uint8) bool {
	pa, ok := k.Proc.translate(va)
	if !ok {
		return false
	}
	return k.Mem.StoreByte(pa, v) == nil
}

// ReadUserWord reads a word from the user address space through the
// page table; exposed for program result verification and the
// application-level simulation layer.
func (k *Kernel) ReadUserWord(va uint32) (uint32, bool) { return k.loadUserWord(va) }

// UserPage returns the physical page backing user VA va's page through
// the page table, or nil for a page that reads as zeros: unmapped,
// unallocated, or never touched.
func (k *Kernel) UserPage(va uint32) *mem.Page {
	if pa, ok := k.Proc.translate(va); ok {
		return k.Mem.PageRef(pa)
	}
	return nil
}

// WriteUserWord writes a word into the user address space through the
// page table, ignoring page protection (kernel privilege).
func (k *Kernel) WriteUserWord(va, v uint32) bool { return k.storeUserWord(va, v) }

// --- hcall dispatch -------------------------------------------------

func (k *Kernel) hcall(c *cpu.CPU, code uint32) error {
	err := k.dispatchHCall(c, code)
	// Surface any machine check recorded while the host layer ran; the
	// kernel-call boundary is where the "hardware" reports it.
	if err == nil && k.mcheck != nil {
		err = k.mcheck
	}
	return err
}

func (k *Kernel) dispatchHCall(c *cpu.CPU, code uint32) error {
	switch code {
	case HCUltrixTrap:
		return k.ultrixTrap()
	case HCSyscall:
		return k.syscallFromTrapframe()
	case HCTLBProt:
		return k.tlbProt()
	case HCPanic:
		var asid uint8
		if k.Proc != nil {
			asid = k.Proc.asid
		}
		return &MachineError{
			Op:       fmt.Sprintf("unhandled condition at epc %#x cause %#x", c.CP0[arch.C0EPC], c.CP0[arch.C0Cause]),
			PC:       c.CP0[arch.C0EPC],
			BadVAddr: c.CP0[arch.C0BadVAddr],
			ASID:     asid,
			Err:      ErrKernelPanic,
		}
	}
	return fmt.Errorf("kernel: unknown hcall %d", code)
}

// LaunchUser starts the user process at entry with the given initial
// stack pointer, using the kernel's privileged launch stub.
func (k *Kernel) LaunchUser(entry, sp uint32) {
	c := k.CPU
	c.GPR[arch.RegA0] = entry
	c.GPR[arch.RegA1] = sp
	c.PC = k.Symbol("kern_entry")
	c.NPC = c.PC + 4
}

// Run executes until the process exits or the instruction budget runs
// out.
func (k *Kernel) Run(maxInsts uint64) error {
	_, err := k.CPU.Run(maxInsts)
	if err == nil && k.mcheck != nil {
		err = k.mcheck
	}
	return err
}
