package kernel

import (
	"fmt"

	"uexc/internal/arch"
	"uexc/internal/asm"
	"uexc/internal/tlb"
)

// The cooperative multi-process scheduler. Processes switch at system
// calls only (SysYield, SysExit, or termination), so the light syscall
// save set plus the live register file forms a complete context. Each
// process has its own ASID-tagged address space and linear page table;
// switching installs the new page-table base in the Context register,
// the new ASID in EntryHi, and the new process's fast-exception fields
// in the u-area — exactly the per-process state §2.2 says the mechanism
// needs ("this mechanism requires a tagged TLB").

// SpawnUser creates a new process from an assembled user image, ready
// to run from entry with the given stack pointer on its first
// switch-in.
func (k *Kernel) SpawnUser(prog *asm.Program, entry, sp uint32) (*Proc, error) {
	if len(k.procs) >= MaxProcs {
		return nil, fmt.Errorf("kernel: process table full (%d)", MaxProcs)
	}
	p := newProc(k, uint8(len(k.procs)))
	k.procs = append(k.procs, p)
	if err := p.Load(prog); err != nil {
		return nil, err
	}
	p.ctx.pc = entry
	p.ctx.gpr[arch.RegSP] = sp
	p.ctx.status = arch.SrKUp // resume pops to user mode
	return p, nil
}

// nextRunnable returns the index of the next non-exited process after
// the current one (round robin), possibly the current process itself,
// or -1 if none remain.
func (k *Kernel) nextRunnable() int {
	n := len(k.procs)
	for d := 1; d <= n; d++ {
		i := (k.curr + d) % n
		if !k.procs[i].exited {
			return i
		}
	}
	return -1
}

// saveCurrent captures the running process's context at a syscall
// boundary. result is the value its v0 will hold when resumed.
func (k *Kernel) saveCurrent(result uint32) {
	p := k.procs[k.curr]
	c := k.CPU
	tf := trapframe{k}
	p.ctx.gpr = c.GPR // a0-a3/sp/s-regs still live; k0/k1 are trash by convention
	p.ctx.hi, p.ctx.lo = c.HI, c.LO
	p.ctx.xt, p.ctx.xc, p.ctx.xb = c.XT, c.XC, c.XB
	p.ctx.v0 = result
	p.ctx.pc = tf.word(TfEPC) // already advanced past the syscall
	p.ctx.status = tf.word(TfStatus)
}

// switchIn installs process i: register file, the full trapframe (so
// both the light and full assembly restore paths reload consistently),
// the u-area, and the MMU context.
func (k *Kernel) switchIn(i int) {
	k.curr = i
	p := k.procs[i]
	k.Proc = p
	c := k.CPU

	c.GPR = p.ctx.gpr
	c.GPR[arch.RegV0] = p.ctx.v0
	c.HI, c.LO = p.ctx.hi, p.ctx.lo
	c.XT, c.XC, c.XB = p.ctx.xt, p.ctx.xc, p.ctx.xb

	tf := trapframe{k}
	for r := arch.RegAT; r <= arch.RegRA; r++ {
		tf.setReg(r, c.GPR[r])
	}
	tf.setReg(arch.RegV0, p.ctx.v0)
	tf.setWord(TfHI, c.HI)
	tf.setWord(TfLO, c.LO)
	tf.setWord(TfEPC, p.ctx.pc)
	tf.setWord(TfCause, 0)
	tf.setWord(TfBadVA, 0)
	tf.setWord(TfStatus, p.ctx.status|arch.SrKUp)

	// Switch the u-area to the incoming process's fast-exception state.
	// A process descheduled mid-handler (UEX set in its saved status)
	// resumes with the claim word blanked — the recursion gate travels
	// with the context; its XRET republishes the mask.
	mask := p.fexcMask
	if p.ctx.status&arch.SrUEX != 0 {
		mask = 0
	}
	k.storeKernelWord(UAreaBase+UFexcMask, mask)
	k.storeKernelWord(UAreaBase+UFexcHandler, p.fexcHandler)
	k.storeKernelWord(UAreaBase+UFrameVA, p.frameVA)
	k.storeKernelWord(UAreaBase+UFramePhys, arch.KSeg0Base+p.framePhys)
	k.storeKernelWord(UAreaBase+UAsid, uint32(p.asid))

	// MMU context: page-table base for refills, ASID for matching.
	c.CP0[arch.C0Context] = p.ptBase
	c.CP0[arch.C0EntryHi] = uint32(p.asid) << tlb.HiASIDShft
	k.Stats.Switches++
	k.eventf("kernel: switch to process %d", p.asid)
}

// yield deschedules the current process in favor of the next runnable
// one (a no-op reload if it is alone). result is delivered in the
// yielder's v0 when it next runs.
func (k *Kernel) yield(result uint32) {
	k.saveCurrent(result)
	if next := k.nextRunnable(); next >= 0 {
		k.switchIn(next)
	}
}

// terminateCurrent ends the running process with the given status. The
// machine halts when no runnable process remains; otherwise the next
// one is switched in.
func (k *Kernel) terminateCurrent(status uint32) {
	p := k.procs[k.curr]
	p.exited, p.exitCode = true, status
	if next := k.nextRunnable(); next >= 0 {
		k.switchIn(next)
		return
	}
	k.exited = true
	k.exitCode = status
	k.CPU.Halted = true
}
