package main

import (
	"fmt"
	"math"

	"uexc/internal/core"
	"uexc/internal/difftest"
	"uexc/internal/progen"
)

// benchN is the exception count of each guest microbenchmark, the
// harness's own.
const benchN = 40

// cell pairs one measured Table 2 cell with the paper's value.
type cell struct {
	name            string
	measured, paper float64
}

// modelled is the design every guest number comes from, in simulated
// cycles at 25 MHz (means over benchN exceptions) and Table 3 kernel
// instructions: the fast path's 213-cycle (8.5 µs) round trip, Ultrix's
// 2100 (84.0 µs), hardware delivery's 93, and 65 fast-path
// instructions. Guest numbers are deterministic, so every run holds
// them exactly: a change that moves one changes the modelled design,
// not its speed, and fails the run whatever the host-time metrics say.
var modelled = struct {
	fast, ultrix, hw, wpFast, wpUltrix, subpage core.Timing
	phases                                      core.PhaseCounts
}{
	fast:     core.Timing{N: benchN, Deliver: 136, Return: 69, RoundTrip: 213},
	ultrix:   core.Timing{N: benchN, Deliver: 1443, Return: 649, RoundTrip: 2100},
	hw:       core.Timing{N: benchN, Deliver: 51, Return: 34, RoundTrip: 93},
	wpFast:   core.Timing{N: benchN, Deliver: 324.4, Return: 72.2, RoundTrip: 398.6},
	wpUltrix: core.Timing{N: benchN, Deliver: 1443, Return: 667, RoundTrip: 2454.4},
	subpage:  core.Timing{N: benchN, Deliver: 414.4, Return: 72.2, RoundTrip: 488.6},
	phases:   core.PhaseCounts{Decode: 6, Compat: 11, Save: 31, FPCheck: 6, TLBCheck: 8, Vector: 3},
}

// measureGuest measures the modelled design in simulated time: the
// Table 2 cells against the paper's values (paper_err_pct, the largest
// relative error), the three delivery modes' round trips, and Table 3's
// kernel phase counts. Every workload checks each measurement against
// modelled, so paper_err_pct cannot move without failing the run.
func measureGuest(res *result) error {
	var t [3]core.Timing
	for i, mode := range []core.Mode{core.ModeFast, core.ModeUltrix, core.ModeHardware} {
		var err error
		if t[i], err = core.MeasureSimpleException(mode, benchN); err != nil {
			return fmt.Errorf("guest %s round trip: %w", mode, err)
		}
	}
	fast, ult, hw := t[0], t[1], t[2]
	wpF, err := core.MeasureWriteProt(core.ModeFast, true, benchN)
	if err != nil {
		return fmt.Errorf("guest write-prot: %w", err)
	}
	wpU, err := core.MeasureWriteProt(core.ModeUltrix, false, benchN)
	if err != nil {
		return fmt.Errorf("guest write-prot: %w", err)
	}
	sp, err := core.MeasureSubpage(benchN)
	if err != nil {
		return fmt.Errorf("guest subpage: %w", err)
	}
	pc, err := core.MeasureKernelPhases()
	if err != nil {
		return fmt.Errorf("guest phases: %w", err)
	}

	cells := []cell{
		{"fast deliver", fast.DeliverMicros(), 5}, {"ultrix deliver", ult.DeliverMicros(), 55},
		{"fast write-prot deliver", wpF.DeliverMicros(), 15}, {"ultrix write-prot deliver", wpU.DeliverMicros(), 60},
		{"subpage deliver", sp.Delivered.DeliverMicros(), 19},
		{"fast return", fast.ReturnMicros(), 3}, {"ultrix return", ult.ReturnMicros(), 25},
		{"fast round trip", fast.RoundTripMicros(), 8}, {"ultrix round trip", ult.RoundTripMicros(), 80},
		{"fast write-prot round trip", wpF.RoundTripMicros(), 18},
	}
	worst := cells[0]
	var errPct float64
	for _, c := range cells {
		if e := 100 * math.Abs(c.measured-c.paper) / c.paper; e > errPct {
			errPct, worst = e, c
		}
	}
	fmt.Printf("guest: fast rt %.2f us, ultrix rt %.2f us, hardware rt %.2f us, table 3 total %d; "+
		"largest Table 2 error %.1f%% (%s: %.2f vs %g us)\n",
		fast.RoundTripMicros(), ult.RoundTripMicros(), hw.RoundTripMicros(), pc.Total(),
		errPct, worst.name, worst.measured, worst.paper)
	res.set("paper_err_pct", errPct)
	res.set("kernel.fast_rt_cycles", fast.RoundTrip)
	res.set("kernel.ultrix_rt_cycles", ult.RoundTrip)
	res.set("kernel.hw_rt_cycles", hw.RoundTrip)
	for i, n := range []int{pc.Decode, pc.Compat, pc.Save, pc.FPCheck, pc.TLBCheck, pc.Vector} {
		res.set("kernel.phase_insts."+phases[i], float64(n))
	}
	for _, c := range []struct {
		name      string
		got, want core.Timing
	}{
		{"fast", fast, modelled.fast}, {"ultrix", ult, modelled.ultrix}, {"hardware", hw, modelled.hw},
		{"fast write-prot", wpF, modelled.wpFast}, {"ultrix write-prot", wpU, modelled.wpUltrix},
		{"subpage", sp.Delivered, modelled.subpage},
	} {
		if c.got != c.want {
			res.fail("guest %s timing %+v cycles, the modelled design gives %+v", c.name, c.got, c.want)
		}
	}
	if pc != modelled.phases {
		res.fail("Table 3 phases %+v (total %d), the modelled design gives %+v (total %d)",
			pc, pc.Total(), modelled.phases, modelled.phases.Total())
	}
	return nil
}

// probeSeedBase places the layer probe's progen seeds away from every
// workload's own seeds, so its sources are fresh to the assembler cache.
const probeSeedBase = 5_000_000

// probeLayers measures the engine and lifecycle layers of a traced run
// through their public calls, one span per call. It replays
// cfg.probeSeeds generated programs under all three modes step by step
// — Generate, Source, Get, LoadProgram, EnableHardwareDelivery,
// Run(difftest.Budget), Put, the sequence the server runs a program-run
// job with (server.runProgram in internal/server/job.go) — and then
// times boot, fork, a cached-source load and restore on the first
// program. Its JIT and TLB counters depend on how runs interleave on
// pooled machines, so they are diagnostics, not exact-match values.
func probeLayers(cfg config, res *result, tr *tracer) error {
	pool, err := newWarmPool()
	if err != nil {
		return err
	}
	var (
		srcBytes, runs                            float64
		insts, cycles, execs, blocks, guardMisses uint64
		tlbHits, tlbMisses, fastDeliv, unixDeliv  uint64
		hot                                       string
	)
	for i := 0; i < cfg.probeSeeds; i++ {
		seed := probeSeedBase + cfg.seed*1000 + int64(i)
		req := fmt.Sprint(seed)
		var p *progen.Program
		root := tr.open(0, "bench", "probe", req)
		tr.time(root, "progen", "generate", req, func() { p = progen.Generate(seed) })
		for _, mode := range difftest.Modes {
			var (
				src     string
				m       *core.Machine
				err     error
				loadErr error
				runErr  error
			)
			tr.time(root, "progen", "source", req, func() { src = p.Source(mode, false) })
			srcBytes += float64(len(src))
			if hot == "" {
				hot = src
			}
			tr.time(root, "core", "get", req, func() { m, err = pool.Get() })
			if err != nil {
				return fmt.Errorf("probe checkout: %w", err)
			}
			tr.time(root, "asm", "load", req, func() { loadErr = m.LoadProgram(src) })
			if loadErr != nil {
				return fmt.Errorf("probe seed %d: %w", seed, loadErr)
			}
			if mode == core.ModeHardware {
				tr.time(root, "core", "enable_hw", req, func() { m.EnableHardwareDelivery(progen.HWVector) })
			}
			tr.time(root, "cpu", "run", req, func() { runErr = m.Run(difftest.Budget) })
			if runErr != nil {
				res.fail("probe seed %d mode %s: %v", seed, mode, runErr)
			}
			c := m.CPU()
			runs++
			insts += c.Insts
			cycles += c.Cycles
			execs += c.JITExecs
			blocks += c.JITBlocks
			guardMisses += c.JITGuardMisses
			tlbHits += m.K.TLB.Hits
			tlbMisses += m.K.TLB.Misses
			fastDeliv += m.K.Stats.FastDeliveries
			unixDeliv += m.K.Stats.UnixDeliveries
			tr.time(root, "core", "put", req, func() { pool.Put(m) })
		}
		tr.end(root)
	}
	if err := probeLifecycle(cfg, res, tr, hot); err != nil {
		return err
	}

	med := func(layer, name string) float64 { return 1000 * median(tr.durations(layer, name)) }
	res.set("progen.generate_us", med("progen", "generate"))
	res.set("progen.source_kb", ratio(srcBytes, runs)/1024)
	loads := tr.durations("asm", "load")
	res.set("asm.load_us.p50", 1000*median(loads))
	loadTail, _ := tail(loads)
	res.set("asm.load_us.tail", 1000*loadTail)
	res.set("asm.load_hot_us", med("asm", "load_hot"))
	res.set("core.get_us", med("core", "get"))
	res.set("core.put_us", med("core", "put"))
	res.set("core.boot_us", med("core", "boot"))
	res.set("core.fork_us", med("core", "fork"))
	res.set("core.restore_us", med("core", "restore"))
	res.set("cpu.run_us", med("cpu", "run"))
	res.set("cpu.ns_per_inst", ratio(1e6*sum(tr.durations("cpu", "run")), float64(insts)))
	res.set("cpu.jit_execs_per_block", ratio(float64(execs), float64(blocks)))
	res.set("cpu.jit_guard_miss_frac", ratio(float64(guardMisses), float64(execs+guardMisses)))
	res.set("cpu.tlb_miss_frac", ratio(float64(tlbMisses), float64(tlbHits+tlbMisses)))
	res.set("kernel.sim_insts", float64(insts))
	res.set("kernel.sim_cycles", float64(cycles))
	res.set("kernel.fast_deliveries", float64(fastDeliv))
	res.set("kernel.unix_deliveries", float64(unixDeliv))
	return nil
}

// probeLifecycle times a cold boot, a fork from the boot snapshot, a
// load of an already-assembled source, and a restore after running it,
// cfg.probeSeeds times each.
func probeLifecycle(cfg config, res *result, tr *tracer, src string) error {
	var (
		boot  *core.Machine
		pages []float64
		err   error
	)
	for i := 0; i < cfg.probeSeeds; i++ {
		req := fmt.Sprint("lifecycle-", i)
		tr.time(0, "core", "boot", req, func() { boot, err = core.NewMachine() })
		if err != nil {
			return fmt.Errorf("probe boot: %w", err)
		}
		snap := boot.Snapshot()
		var m *core.Machine
		tr.time(0, "core", "fork", req, func() { m, err = core.Fork(snap) })
		if err != nil {
			return fmt.Errorf("probe fork: %w", err)
		}
		tr.time(0, "asm", "load_hot", req, func() { err = m.LoadProgram(src) })
		if err != nil {
			return fmt.Errorf("probe hot load: %w", err)
		}
		// Run under the difftest floor budget; the guest outcome is not
		// what this loop measures, only the pages the run dirtied.
		_ = m.Run(difftest.Budget)
		var n int
		tr.time(0, "core", "restore", req, func() { n, err = m.Restore(snap) })
		if err != nil {
			return fmt.Errorf("probe restore: %w", err)
		}
		pages = append(pages, float64(n))
	}
	res.set("core.restore_pages", mean(pages))
	return nil
}
