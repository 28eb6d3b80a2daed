package cpu

// The JIT execution tier (DESIGN.md §15): Run dispatches whole
// translated basic blocks (block.go) instead of single interpreter
// steps whenever it can prove the block's execution is byte-for-byte
// equivalent to stepping the interpreter — same architectural state,
// same Insts/Cycles/MemWrites/TLB.Hits accounting, same exception
// points. Anything unprovable falls back to the interpreter:
//
//   - Block entry requires a micro-ITLB hit at a word-aligned PC
//     outside a delay slot; the guard then pins (VPN, kernel mode,
//     counted-ness, mem.Page.Gen). ASID and the Status mode bits are
//     guarded transitively: the micro-ITLB tag is keyed by both, so a
//     hit already proves they match. A moved page generation
//     recompiles (JITInvalidations); any other mismatch recompiles as
//     a guard miss (JITGuardMisses).
//   - Exceptions never happen inside a block. Any op that would fault
//     (overflow, misalignment, a data access the micro-DTLB cannot
//     serve) exits before executing, with PC/NPC/prevWasBranch
//     reconstructed to the exact interpreter state — including the
//     delay-slot case, where EPC arithmetic must see the branch.
//   - Armed hooks disable translation where they could observe a
//     difference: CPU.Inject suppresses the tier entirely unless the
//     injector declared itself kernel-silent (InjectUserOnly), and
//     TLB.InjectMiss is honored for free because the micro-TLBs never
//     serve counted entries while it is armed — kernel text in kseg0
//     (uncounted) keeps JITting, mapped user pages fall back.
//   - A store into the block's own code page completes, then exits
//     the block; the next entry sees the moved generation and
//     recompiles. This is what keeps TestSMCStanzaObservesPatch exact
//     with the tier enabled.
//
// The lockstep torture in fastpath_test.go runs a default-engine
// machine (JIT) against an EngineInterp reference for 400 mutation
// rounds comparing full architectural state plus every counted
// statistic; translate_test.go adds the invalidation edge cases.

import "uexc/internal/arch"

// Engine selects the execution tier Run uses. The zero value is the
// JIT so machines built by New default to the fastest
// observationally-identical tier.
type Engine uint8

const (
	// EngineJIT executes translated basic blocks where provably
	// exact, the fast-path interpreter elsewhere.
	EngineJIT Engine = iota
	// EngineFast is the pre-JIT default: the micro-TLB/predecode
	// fast-path interpreter (DESIGN.md §10).
	EngineFast
	// EngineInterp is the uncached reference interpreter: every access
	// takes the slow path, and neither the micro-TLBs, the predecode
	// cache, nor the JIT engage.
	EngineInterp
)

// DefaultEngine is the tier installed by New and re-applied by core to
// every machine forked or restored from its boot snapshot. Process-wide
// knobs (uexc-bench -engine) set it once at startup.
var DefaultEngine = EngineJIT

// fastOff reports whether the micro-TLB/predecode fast paths are
// disabled, i.e. the reference interpreter tier is selected.
func (c *CPU) fastOff() bool { return c.Engine == EngineInterp }

// jitStep tries to execute one translated block at PC, retiring at
// most limit instructions. It reports false — with architectural
// state untouched — when translation cannot be entered here, and the
// caller falls back to one interpreter Step.
func (c *CPU) jitStep(limit uint64) bool {
	// A delay slot's PC/NPC pair is not the fall-through shape blocks
	// are compiled for; CountPCs needs per-instruction PC visibility;
	// an attached debug guard must check every fetch and data address;
	// an armed injector must see every step unless it declared itself
	// a no-op in kernel mode (faultinject's contract) and we are in
	// kernel mode now.
	if c.prevWasBranch || c.CountPCs || c.Debug != nil {
		return false
	}
	if c.Inject != nil && !(c.InjectUserOnly && c.KernelMode()) {
		return false
	}
	pc := c.PC
	if pc&3 != 0 {
		return false
	}
	kmode := c.KernelMode()
	if !kmode && !arch.InKUSeg(pc) {
		return false
	}
	e := c.itlbLookup(pc)
	if e == nil || e.insts == nil {
		return false
	}
	w := pc & (arch.PageSize - 1) >> 2
	b := e.insts.blocks[w]
	if b == nil || b.gen != e.page.Gen() || b.vpn != pc>>arch.PageShift ||
		b.kmode != kmode || b.counted != e.counted {
		if b != nil {
			if b.gen != e.page.Gen() {
				c.JITInvalidations++
			} else {
				c.JITGuardMisses++
			}
		}
		b = c.compileBlock(pc, e)
		e.insts.blocks[w] = b
		c.JITBlocks++
	}
	if len(b.ops) == 0 {
		return false // sentinel: first instruction is interpreter-only
	}
	if c.execBlock(b, limit) == 0 {
		// The first op bailed before retiring anything (fault, or a
		// data access the micro-DTLB couldn't serve). State is
		// untouched — outside a delay slot NPC==PC+4 always — so the
		// interpreter redoes the instruction identically.
		return false
	}
	c.JITExecs++
	return true
}

// execBlock runs b until an exit condition and returns the number of
// instructions retired. All accounting is accumulated locally and
// flushed on every exit path so a bail observes exact interpreter
// accounting: each retired instruction contributes one fetch hit
// (counted pages), one Insts, and Cost.Inst cycles plus its extras;
// the op that bails contributes nothing — the interpreter re-executes
// it from scratch, including its fetch.
//
// The hot loop carries no per-op counter updates: retires are
// recovered as k-deltas (the op array maps 1:1 to instructions), the
// budget stop is a precomputed index, and the delay-slot/block-end
// logic runs only when k crosses that index. Blocks have at most one
// branch, always at len(ops)-2 with its delay slot last, so inDelay
// can only be true at the final op.
func (c *CPU) execBlock(b *jitBlock, limit uint64) uint64 {
	g := &c.GPR
	ops := b.ops
	nops := len(ops)
	// n counts instructions retired in completed segments; extra holds
	// cycles beyond the per-instruction base cost (loads/stores,
	// mult/div); dataHits are counted data micro-TLB hits.
	var n, extra, writes, dataHits uint64
	// With no watchdog attached, a self-loop (a taken branch back to
	// the block's own head) re-enters without leaving execBlock. With
	// a watchdog, every block pass returns to Run so Observe sees the
	// machine at block granularity.
	selfLoop := c.Watchdog == nil
	k, k0 := 0, 0
	inDelay := false   // the op at nops-1 is a taken branch's delay slot
	var btarget uint32 // where that branch transfers after the delay slot
	// klim is where this pass must stop: the block end, or earlier if
	// the instruction budget runs out first. The caller guarantees
	// limit >= 1, and the self-loop path re-derives klim per pass.
	klim := nops
	if limit < uint64(nops) {
		klim = int(limit)
	}

	defer func() {
		c.Insts += n
		c.Cycles += extra + n*c.Cost.Inst
		c.MemWrites += writes
		if b.counted {
			c.TLB.Hits += n // one counted instruction fetch per retire
		}
		c.TLB.Hits += dataHits
	}()

	for {
		op := &ops[k]
		switch op.kind {
		case uNop:

		case uSLL:
			g[op.rd] = g[op.rt] << op.imm
		case uSRL:
			g[op.rd] = g[op.rt] >> op.imm
		case uSRA:
			g[op.rd] = uint32(int32(g[op.rt]) >> op.imm)
		case uSLLV:
			g[op.rd] = g[op.rt] << (g[op.rs] & 31)
		case uSRLV:
			g[op.rd] = g[op.rt] >> (g[op.rs] & 31)
		case uSRAV:
			g[op.rd] = uint32(int32(g[op.rt]) >> (g[op.rs] & 31))

		case uMFHI:
			g[op.rd] = c.HI
		case uMTHI:
			c.HI = g[op.rs]
		case uMFLO:
			g[op.rd] = c.LO
		case uMTLO:
			c.LO = g[op.rs]
		case uMULT:
			p := int64(int32(g[op.rs])) * int64(int32(g[op.rt]))
			c.LO, c.HI = uint32(p), uint32(p>>32)
			extra += c.Cost.MultExtra
		case uMULTU:
			p := uint64(g[op.rs]) * uint64(g[op.rt])
			c.LO, c.HI = uint32(p), uint32(p>>32)
			extra += c.Cost.MultExtra
		case uDIV:
			rs, rt := g[op.rs], g[op.rt]
			if rt != 0 {
				c.LO = uint32(int32(rs) / int32(rt))
				c.HI = uint32(int32(rs) % int32(rt))
			} else {
				c.LO, c.HI = 0, 0
			}
			extra += c.Cost.DivExtra
		case uDIVU:
			rs, rt := g[op.rs], g[op.rt]
			if rt != 0 {
				c.LO, c.HI = rs/rt, rs%rt
			} else {
				c.LO, c.HI = 0, 0
			}
			extra += c.Cost.DivExtra

		case uADD:
			rs, rt := g[op.rs], g[op.rt]
			sum := rs + rt
			if overflowAdd(rs, rt, sum) {
				goto bail
			}
			if op.rd != 0 {
				g[op.rd] = sum
			}
		case uADDU:
			g[op.rd] = g[op.rs] + g[op.rt]
		case uSUB:
			rs, rt := g[op.rs], g[op.rt]
			diff := rs - rt
			if overflowSub(rs, rt, diff) {
				goto bail
			}
			if op.rd != 0 {
				g[op.rd] = diff
			}
		case uSUBU:
			g[op.rd] = g[op.rs] - g[op.rt]
		case uAND:
			g[op.rd] = g[op.rs] & g[op.rt]
		case uOR:
			g[op.rd] = g[op.rs] | g[op.rt]
		case uXOR:
			g[op.rd] = g[op.rs] ^ g[op.rt]
		case uNOR:
			g[op.rd] = ^(g[op.rs] | g[op.rt])
		case uSLT:
			g[op.rd] = b2u(int32(g[op.rs]) < int32(g[op.rt]))
		case uSLTU:
			g[op.rd] = b2u(g[op.rs] < g[op.rt])

		case uADDI:
			rs := g[op.rs]
			sum := rs + op.imm
			if overflowAdd(rs, op.imm, sum) {
				goto bail
			}
			if op.rd != 0 {
				g[op.rd] = sum
			}
		case uADDIU:
			g[op.rd] = g[op.rs] + op.imm
		case uSLTI:
			g[op.rd] = b2u(int32(g[op.rs]) < int32(op.imm))
		case uSLTIU:
			g[op.rd] = b2u(g[op.rs] < op.imm)
		case uANDI:
			g[op.rd] = g[op.rs] & op.imm
		case uORI:
			g[op.rd] = g[op.rs] | op.imm
		case uXORI:
			g[op.rd] = g[op.rs] ^ op.imm
		case uLUI:
			g[op.rd] = op.imm

		case uMFXT:
			g[op.rd] = c.XT
		case uMTXT:
			c.XT = g[op.rs]
		case uMFXC:
			g[op.rd] = c.XC
		case uMFXB:
			g[op.rd] = c.XB

		case uLB, uLBU:
			va := g[op.rs] + op.imm
			e := c.dtlbLookup(va, false)
			if e == nil {
				goto bail
			}
			if e.counted {
				dataHits++
			}
			if op.rd != 0 {
				v := e.page.Byte(va)
				if op.kind == uLB {
					g[op.rd] = uint32(int32(int8(v)))
				} else {
					g[op.rd] = uint32(v)
				}
			}
			extra += c.Cost.LoadStoreExtra
		case uLH, uLHU:
			va := g[op.rs] + op.imm
			if va&1 != 0 {
				goto bail
			}
			e := c.dtlbLookup(va, false)
			if e == nil {
				goto bail
			}
			if e.counted {
				dataHits++
			}
			if op.rd != 0 {
				v := e.page.Half(va)
				if op.kind == uLH {
					g[op.rd] = uint32(int32(int16(v)))
				} else {
					g[op.rd] = uint32(v)
				}
			}
			extra += c.Cost.LoadStoreExtra
		case uLW:
			va := g[op.rs] + op.imm
			if va&3 != 0 {
				goto bail
			}
			e := c.dtlbLookup(va, false)
			if e == nil {
				goto bail
			}
			if e.counted {
				dataHits++
			}
			if op.rd != 0 {
				g[op.rd] = e.page.Word(va)
			}
			extra += c.Cost.LoadStoreExtra

		case uSB:
			va := g[op.rs] + op.imm
			e := c.dtlbLookup(va, true)
			if e == nil {
				goto bail
			}
			if e.counted {
				dataHits++
			}
			e.page.SetByte(va, uint8(g[op.rt]))
			writes++
			extra += c.Cost.LoadStoreExtra
			if e.page == b.page {
				goto smcExit
			}
		case uSH:
			va := g[op.rs] + op.imm
			if va&1 != 0 {
				goto bail
			}
			e := c.dtlbLookup(va, true)
			if e == nil {
				goto bail
			}
			if e.counted {
				dataHits++
			}
			e.page.SetHalf(va, uint16(g[op.rt]))
			writes++
			extra += c.Cost.LoadStoreExtra
			if e.page == b.page {
				goto smcExit
			}
		case uSW:
			va := g[op.rs] + op.imm
			if va&3 != 0 {
				goto bail
			}
			e := c.dtlbLookup(va, true)
			if e == nil {
				goto bail
			}
			if e.counted {
				dataHits++
			}
			e.page.SetWord(va, g[op.rt])
			writes++
			extra += c.Cost.LoadStoreExtra
			if e.page == b.page {
				goto smcExit
			}

		// Terminators. A taken branch records its target and marks
		// the next op — always the last — as its delay slot; a
		// not-taken conditional branch is architecturally a plain
		// sequential instruction (the interpreter leaves
		// prevWasBranch false), so it falls through like one. Either
		// way control reaches the shared boundary check below, which
		// performs the budget stop at the delay slot when needed.
		case uJ:
			btarget = op.imm
			inDelay = true
		case uJAL:
			g[arch.RegRA] = b.startVA + uint32(k)*4 + 8
			btarget = op.imm
			inDelay = true
		case uJR:
			btarget = g[op.rs]
			inDelay = true
		case uJALR:
			t := g[op.rs] // capture before the link write (jalr rd, rd)
			if op.rd != 0 {
				g[op.rd] = b.startVA + uint32(k)*4 + 8
			}
			btarget = t
			inDelay = true
		case uBEQ:
			if g[op.rs] == g[op.rt] {
				btarget = op.imm
				inDelay = true
			}
		case uBNE:
			if g[op.rs] != g[op.rt] {
				btarget = op.imm
				inDelay = true
			}
		case uBLEZ:
			if int32(g[op.rs]) <= 0 {
				btarget = op.imm
				inDelay = true
			}
		case uBGTZ:
			if int32(g[op.rs]) > 0 {
				btarget = op.imm
				inDelay = true
			}
		case uBLTZ:
			if int32(g[op.rs]) < 0 {
				btarget = op.imm
				inDelay = true
			}
		case uBGEZ:
			if int32(g[op.rs]) >= 0 {
				btarget = op.imm
				inDelay = true
			}
		case uBLTZAL:
			g[arch.RegRA] = b.startVA + uint32(k)*4 + 8
			if int32(g[op.rs]) < 0 {
				btarget = op.imm
				inDelay = true
			}
		case uBGEZAL:
			g[arch.RegRA] = b.startVA + uint32(k)*4 + 8
			if int32(g[op.rs]) >= 0 {
				btarget = op.imm
				inDelay = true
			}
		}

		// Op k retired.
		k++
		if k >= klim {
			if k < nops {
				goto bail // budget exhausted before the block end
			}
			n += uint64(k - k0)
			if !inDelay {
				// Fell off the end of a straight-line block (or a
				// not-taken branch's fall-through).
				c.PC = b.startVA + uint32(k)*4
				c.NPC = c.PC + 4
				c.prevWasBranch = false
				return n
			}
			// The delay slot of a taken branch just retired: transfer.
			if btarget == b.startVA && selfLoop && n < limit {
				k, k0 = 0, 0
				inDelay = false
				klim = nops
				if rem := limit - n; rem < uint64(nops) {
					klim = int(rem)
				}
				continue
			}
			c.PC = btarget
			c.NPC = btarget + 4
			c.prevWasBranch = false
			return n
		}
	}

smcExit:
	// A store landed in this block's own code page: the store (op k)
	// completes with full accounting, then the block exits at the next
	// instruction boundary so the moved page generation is observed
	// before another translated instruction runs. A delay-slot store
	// still transfers to the branch target.
	k++
	n += uint64(k - k0)
	if inDelay && k == nops {
		c.PC = btarget
	} else {
		c.PC = b.startVA + uint32(k)*4
	}
	c.NPC = c.PC + 4
	c.prevWasBranch = false
	return n

bail:
	// Exit before op k executes, reconstructing the exact interpreter
	// state. In a delay slot (k == nops-1 with a taken branch pending)
	// the interpreter would be at PC=slot, NPC=target with
	// prevWasBranch set — EPC arithmetic must see the branch;
	// otherwise the machine simply sits at op k's address.
	n += uint64(k - k0)
	c.PC = b.startVA + uint32(k)*4
	if inDelay {
		c.NPC = btarget
		c.prevWasBranch = true
	} else {
		c.NPC = c.PC + 4
		c.prevWasBranch = false
	}
	return n
}
