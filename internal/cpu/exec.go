package cpu

import (
	"uexc/internal/arch"
	"uexc/internal/tlb"
)

// SetPC redirects control flow from host-side code (HCALL hooks) or
// PC-exchanging instructions, bypassing the normal fall-through update
// for the current step.
func (c *CPU) SetPC(pc uint32) {
	c.PC = pc
	c.NPC = pc + 4
	c.redirect = true
}

// execute performs one decoded instruction. It returns a non-nil signal
// if the instruction faults (in which case it must have had no
// architectural effect). branchTo schedules a control transfer after
// the delay slot.
func (c *CPU) execute(i *arch.Inst, pc uint32) *excSignal {
	g := &c.GPR
	rs, rt, rd := g[i.Rs], g[i.Rt], &g[i.Rd]

	switch i.Mn {
	case arch.MnInvalid:
		return exc(arch.ExcRI)

	// --- shifts ---
	case arch.MnSLL:
		g[i.Rd] = g[i.Rt] << i.Shamt
	case arch.MnSRL:
		g[i.Rd] = g[i.Rt] >> i.Shamt
	case arch.MnSRA:
		g[i.Rd] = uint32(int32(g[i.Rt]) >> i.Shamt)
	case arch.MnSLLV:
		*rd = rt << (rs & 31)
	case arch.MnSRLV:
		*rd = rt >> (rs & 31)
	case arch.MnSRAV:
		*rd = uint32(int32(rt) >> (rs & 31))

	// --- jumps ---
	case arch.MnJR:
		c.branchTo(rs)
	case arch.MnJALR:
		*rd = pc + 8
		c.branchTo(rs)
	case arch.MnJ:
		c.branchTo(arch.JumpTarget(pc, i.Target))
	case arch.MnJAL:
		g[arch.RegRA] = pc + 8
		c.branchTo(arch.JumpTarget(pc, i.Target))

	// --- traps ---
	case arch.MnSYSCALL:
		return exc(arch.ExcSys)
	case arch.MnBREAK:
		return exc(arch.ExcBp)

	// --- hi/lo and multiply/divide ---
	case arch.MnMFHI:
		*rd = c.HI
	case arch.MnMTHI:
		c.HI = rs
	case arch.MnMFLO:
		*rd = c.LO
	case arch.MnMTLO:
		c.LO = rs
	case arch.MnMULT:
		p := int64(int32(rs)) * int64(int32(rt))
		c.LO, c.HI = uint32(p), uint32(p>>32)
		c.Cycles += c.Cost.MultExtra
	case arch.MnMULTU:
		p := uint64(rs) * uint64(rt)
		c.LO, c.HI = uint32(p), uint32(p>>32)
		c.Cycles += c.Cost.MultExtra
	case arch.MnDIV:
		if rt != 0 {
			c.LO = uint32(int32(rs) / int32(rt))
			c.HI = uint32(int32(rs) % int32(rt))
		} else {
			c.LO, c.HI = 0, 0
		}
		c.Cycles += c.Cost.DivExtra
	case arch.MnDIVU:
		if rt != 0 {
			c.LO, c.HI = rs/rt, rs%rt
		} else {
			c.LO, c.HI = 0, 0
		}
		c.Cycles += c.Cost.DivExtra

	// --- arithmetic/logic, register ---
	case arch.MnADD:
		sum := rs + rt
		if overflowAdd(rs, rt, sum) {
			return exc(arch.ExcOv)
		}
		*rd = sum
	case arch.MnADDU:
		*rd = rs + rt
	case arch.MnSUB:
		diff := rs - rt
		if overflowSub(rs, rt, diff) {
			return exc(arch.ExcOv)
		}
		*rd = diff
	case arch.MnSUBU:
		*rd = rs - rt
	case arch.MnAND:
		*rd = rs & rt
	case arch.MnOR:
		*rd = rs | rt
	case arch.MnXOR:
		*rd = rs ^ rt
	case arch.MnNOR:
		*rd = ^(rs | rt)
	case arch.MnSLT:
		*rd = b2u(int32(rs) < int32(rt))
	case arch.MnSLTU:
		*rd = b2u(rs < rt)

	// --- branches ---
	case arch.MnBLTZ:
		if int32(rs) < 0 {
			c.branchTo(arch.BranchTarget(pc, i.Imm))
		}
	case arch.MnBGEZ:
		if int32(rs) >= 0 {
			c.branchTo(arch.BranchTarget(pc, i.Imm))
		}
	case arch.MnBLTZAL:
		g[arch.RegRA] = pc + 8
		if int32(rs) < 0 {
			c.branchTo(arch.BranchTarget(pc, i.Imm))
		}
	case arch.MnBGEZAL:
		g[arch.RegRA] = pc + 8
		if int32(rs) >= 0 {
			c.branchTo(arch.BranchTarget(pc, i.Imm))
		}
	case arch.MnBEQ:
		if rs == rt {
			c.branchTo(arch.BranchTarget(pc, i.Imm))
		}
	case arch.MnBNE:
		if rs != rt {
			c.branchTo(arch.BranchTarget(pc, i.Imm))
		}
	case arch.MnBLEZ:
		if int32(rs) <= 0 {
			c.branchTo(arch.BranchTarget(pc, i.Imm))
		}
	case arch.MnBGTZ:
		if int32(rs) > 0 {
			c.branchTo(arch.BranchTarget(pc, i.Imm))
		}

	// --- arithmetic/logic, immediate ---
	case arch.MnADDI:
		imm := uint32(i.SImm())
		sum := rs + imm
		if overflowAdd(rs, imm, sum) {
			return exc(arch.ExcOv)
		}
		g[i.Rt] = sum
	case arch.MnADDIU:
		g[i.Rt] = rs + uint32(i.SImm())
	case arch.MnSLTI:
		g[i.Rt] = b2u(int32(rs) < i.SImm())
	case arch.MnSLTIU:
		g[i.Rt] = b2u(rs < uint32(i.SImm()))
	case arch.MnANDI:
		g[i.Rt] = rs & uint32(i.Imm)
	case arch.MnORI:
		g[i.Rt] = rs | uint32(i.Imm)
	case arch.MnXORI:
		g[i.Rt] = rs ^ uint32(i.Imm)
	case arch.MnLUI:
		g[i.Rt] = uint32(i.Imm) << 16

	// --- CP0 ---
	case arch.MnMFC0, arch.MnMTC0, arch.MnTLBR, arch.MnTLBWI,
		arch.MnTLBWR, arch.MnTLBP, arch.MnRFE:
		if !c.KernelMode() {
			return exc(arch.ExcCpU)
		}
		return c.executeCP0(i)

	// --- loads ---
	case arch.MnLB:
		v, sig := c.loadByte(rs + uint32(i.SImm()))
		if sig != nil {
			return sig
		}
		g[i.Rt] = uint32(int32(int8(v)))
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnLBU:
		v, sig := c.loadByte(rs + uint32(i.SImm()))
		if sig != nil {
			return sig
		}
		g[i.Rt] = uint32(v)
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnLH:
		v, sig := c.loadHalf(rs + uint32(i.SImm()))
		if sig != nil {
			return sig
		}
		g[i.Rt] = uint32(int32(int16(v)))
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnLHU:
		v, sig := c.loadHalf(rs + uint32(i.SImm()))
		if sig != nil {
			return sig
		}
		g[i.Rt] = uint32(v)
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnLW:
		v, sig := c.loadWord(rs + uint32(i.SImm()))
		if sig != nil {
			return sig
		}
		g[i.Rt] = v
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnLWL:
		va := rs + uint32(i.SImm())
		w, sig := c.loadWord(va &^ 3)
		if sig != nil {
			return sig
		}
		b := va & 3
		sh := 8 * (3 - b)
		mask := uint32(0xffffffff) >> (8 * (b + 1)) // little-endian: keep low bytes
		if b == 3 {
			mask = 0
		}
		g[i.Rt] = g[i.Rt]&mask | w<<sh
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnLWR:
		va := rs + uint32(i.SImm())
		w, sig := c.loadWord(va &^ 3)
		if sig != nil {
			return sig
		}
		b := va & 3
		sh := 8 * b
		var keep uint32
		if b != 0 {
			keep = 0xffffffff << (8 * (4 - b))
		}
		g[i.Rt] = g[i.Rt]&keep | w>>sh
		c.Cycles += c.Cost.LoadStoreExtra

	// --- stores ---
	case arch.MnSB:
		if sig := c.storeByte(rs+uint32(i.SImm()), uint8(rt)); sig != nil {
			return sig
		}
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnSH:
		if sig := c.storeHalf(rs+uint32(i.SImm()), uint16(rt)); sig != nil {
			return sig
		}
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnSW:
		if sig := c.storeWord(rs+uint32(i.SImm()), rt); sig != nil {
			return sig
		}
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnSWL:
		va := rs + uint32(i.SImm())
		w, sig := c.loadWord(va &^ 3)
		if sig != nil {
			return sig
		}
		b := va & 3
		sh := 8 * (3 - b)
		// little-endian SWL: high (b+1) bytes of rt into word bytes 0..b.
		var clear uint32 = 0xffffffff >> (8 * (3 - b))
		w = w&^clear | rt>>sh
		if sig := c.storeWord(va&^3, w); sig != nil {
			return sig
		}
		c.Cycles += c.Cost.LoadStoreExtra
	case arch.MnSWR:
		va := rs + uint32(i.SImm())
		w, sig := c.loadWord(va &^ 3)
		if sig != nil {
			return sig
		}
		b := va & 3
		sh := 8 * b
		var clear uint32 = 0xffffffff << sh // word bytes b..3
		w = w&^clear | rt<<sh
		if sig := c.storeWord(va&^3, w); sig != nil {
			return sig
		}
		c.Cycles += c.Cost.LoadStoreExtra

	// --- SPECIAL2 extensions ---
	case arch.MnHCALL:
		if !c.KernelMode() {
			return exc(arch.ExcRI)
		}
		if c.OS == nil {
			return exc(arch.ExcRI)
		}
		if err := c.OS.HCall(c, i.Code); err != nil {
			c.pendingHookErr = err
		}
	case arch.MnMFXT:
		*rd = c.XT
	case arch.MnMTXT:
		c.XT = rs
	case arch.MnMFXC:
		*rd = c.XC
	case arch.MnMFXB:
		*rd = c.XB
	case arch.MnXRET:
		// Exchange PC and XT again (Tera-style return); clears the
		// recursion guard.
		target := c.XT
		c.XT = pc + 4
		wasUEX := c.CP0[arch.C0Status]&arch.SrUEX != 0
		c.CP0[arch.C0Status] &^= arch.SrUEX
		c.SetPC(target)
		if wasUEX && c.OS != nil {
			c.OS.OnUEXClear()
		}
	case arch.MnUTLBMOD:
		return c.executeUTLBMod(rs, rt)
	}
	return nil
}

// executeCP0 handles privileged system-control instructions; the caller
// has already verified kernel mode.
func (c *CPU) executeCP0(i *arch.Inst) *excSignal {
	switch i.Mn {
	case arch.MnMFC0:
		v := c.CP0[i.C0Reg&31]
		if i.C0Reg == arch.C0Random {
			v = uint32(c.TLB.Random()) << 8
		}
		c.GPR[i.Rt] = v
	case arch.MnMTC0:
		c.CP0[i.C0Reg&31] = c.GPR[i.Rt]
	case arch.MnTLBR:
		e := c.TLB.Read(int(c.CP0[arch.C0Index] >> 8 & 63))
		c.CP0[arch.C0EntryHi] = e.Hi
		c.CP0[arch.C0EntryLo] = e.Lo
	case arch.MnTLBWI:
		c.TLB.WriteIndexed(int(c.CP0[arch.C0Index]>>8&63), tlb.Entry{
			Hi: c.CP0[arch.C0EntryHi], Lo: c.CP0[arch.C0EntryLo],
		})
	case arch.MnTLBWR:
		c.TLB.WriteRandom(tlb.Entry{
			Hi: c.CP0[arch.C0EntryHi], Lo: c.CP0[arch.C0EntryLo],
		})
	case arch.MnTLBP:
		if idx, ok := c.TLB.Probe(c.CP0[arch.C0EntryHi]); ok {
			c.CP0[arch.C0Index] = uint32(idx) << 8
		} else {
			c.CP0[arch.C0Index] = 1 << 31
		}
	case arch.MnRFE:
		// Pop the KU/IE stack: current <= previous <= old.
		sr := c.CP0[arch.C0Status]
		c.CP0[arch.C0Status] = sr&^0xf | sr>>2&0xf
	}
	return nil
}

// executeUTLBMod implements the proposed user-level TLB protection
// update: rs holds the virtual address, rt the new protection
// (bit 0 = writable, bit 1 = valid/readable). User mode requires the
// entry's U bit; the translation is never modified. An entry miss or a
// forbidden entry raises a reserved-instruction exception, sending the
// (mis)use to the kernel.
func (c *CPU) executeUTLBMod(va, prot uint32) *excSignal {
	if !c.KernelMode() && !c.HWUTLBMod {
		// Hardware support absent: trap so the kernel can emulate the
		// opcode (§3.2.3's software variant).
		return exc(arch.ExcRI)
	}
	e, idx, ok := c.TLB.Lookup(va, c.ASID())
	if !ok {
		return exc(arch.ExcRI)
	}
	if !c.KernelMode() && !e.UserModifiable() {
		return exc(arch.ExcRI)
	}
	c.TLB.UpdateProtection(idx, prot&1 != 0, prot&2 != 0)
	return nil
}

func overflowAdd(a, b, sum uint32) bool {
	return (a^b)&0x80000000 == 0 && (a^sum)&0x80000000 != 0
}

func overflowSub(a, b, diff uint32) bool {
	return (a^b)&0x80000000 != 0 && (a^diff)&0x80000000 != 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
