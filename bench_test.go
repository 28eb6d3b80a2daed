package uexc

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its exhibit on the
// simulated machine, prints it once, and reports the headline values as
// custom metrics so `go test -bench` output carries the reproduction.
//
//	go test -bench=. -benchmem
//
// Individual exhibits: -bench=BenchmarkTable2 etc. The cmd/uexc-bench
// binary prints the same tables without the benchmarking framework.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"uexc/internal/apps/gcsim"
	"uexc/internal/apps/swizzle"
	"uexc/internal/core"
	"uexc/internal/cpu"
	"uexc/internal/harness"
	"uexc/internal/report"
	"uexc/internal/simos"
	"uexc/internal/sweep"
)

var printOnce sync.Map

// printExhibit prints a rendered exhibit exactly once per process.
func printExhibit(key, body string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Fprintf(os.Stdout, "\n%s\n", body)
	}
}

func renderOrFatal(b *testing.B, f func() (*report.Table, error)) *report.Table {
	b.Helper()
	t, err := f()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkTable1 regenerates the cross-system delivery survey.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.Table1)
		printExhibit("table1", t.Render())
	}
	ult, err := core.MeasureSimpleException(core.ModeUltrix, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(ult.RoundTripMicros(), "ultrix_rt_µs")
}

// BenchmarkTable2 regenerates the fast-mechanism microbenchmarks
// (deliver 5 µs, write-prot 15 µs, subpage 19 µs, return 3 µs, rt 8 µs).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.Table2)
		printExhibit("table2", t.Render())
	}
	fast, err := core.MeasureSimpleException(core.ModeFast, 30)
	if err != nil {
		b.Fatal(err)
	}
	wp, err := core.MeasureWriteProt(core.ModeFast, true, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(fast.DeliverMicros(), "deliver_µs")
	b.ReportMetric(fast.ReturnMicros(), "return_µs")
	b.ReportMetric(fast.RoundTripMicros(), "rt_µs")
	b.ReportMetric(wp.DeliverMicros(), "wprot_deliver_µs")
}

// BenchmarkTable3 regenerates the kernel instruction-count breakdown
// (6/11/31/6/8/3 = 65).
func BenchmarkTable3(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.Table3)
		printExhibit("table3", t.Render())
		pc, err := core.MeasureKernelPhases()
		if err != nil {
			b.Fatal(err)
		}
		total = pc.Total()
	}
	b.ReportMetric(float64(total), "kernel_insts")
}

// BenchmarkTable4 regenerates the generational-GC comparison
// (Lisp 24→23 s, array 2→1.8 s). The reported improvements come from
// one extra set of gcsim runs outside the timed loop, so ns/op is the
// exhibit alone.
func BenchmarkTable4(b *testing.B) {
	ult, err := simos.Measure(core.ModeUltrix)
	if err != nil {
		b.Fatal(err)
	}
	fast, err := simos.Measure(core.ModeFast)
	if err != nil {
		b.Fatal(err)
	}
	lu := gcsim.LispOps(gcsim.BarrierSigsegv, ult)
	lf := gcsim.LispOps(gcsim.BarrierFastEager, fast)
	au := gcsim.ArrayTest(gcsim.BarrierSigsegv, ult)
	af := gcsim.ArrayTest(gcsim.BarrierFastEager, fast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.Table4)
		printExhibit("table4", t.Render())
	}
	b.ReportMetric(100*(lu.Seconds-lf.Seconds)/lu.Seconds, "lisp_improvement_%")
	b.ReportMetric(100*(au.Seconds-af.Seconds)/au.Seconds, "array_improvement_%")
}

// BenchmarkTable5 regenerates the write-barrier break-even analysis.
// As in BenchmarkTable4, the reported metric is computed once, outside
// the timed loop.
func BenchmarkTable5(b *testing.B) {
	fast, err := simos.Measure(core.ModeFast)
	if err != nil {
		b.Fatal(err)
	}
	sw := gcsim.TreeWorkload(gcsim.BarrierSoftware, fast)
	pp := gcsim.TreeWorkload(gcsim.BarrierFastEager, fast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.Table5)
		printExhibit("table5", t.Render())
	}
	b.ReportMetric(float64(sw.Stats.Checks)*5/(25*float64(pp.Stats.Faults)), "tree_breakeven_µs")
}

// BenchmarkFigure3 regenerates the swizzling checks-vs-exceptions
// curves and validates one crossover against the object store.
func BenchmarkFigure3(b *testing.B) {
	var crossover int
	for i := 0; i < b.N; i++ {
		s, err := harness.Figure3(false, 1)
		if err != nil {
			b.Fatal(err)
		}
		printExhibit("figure3", s.Render())
		fast, err := core.MeasureUnalignedMin(30)
		if err != nil {
			b.Fatal(err)
		}
		crossover, err = swizzle.Fig3Crossover(5, fast.RoundTripMicros(), 600)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(crossover), "breakeven_uses_fast_c5")
}

// BenchmarkFigure4 regenerates the eager-vs-lazy swizzling curves and
// validates one crossover.
func BenchmarkFigure4(b *testing.B) {
	var crossover int
	for i := 0; i < b.N; i++ {
		s, err := harness.Figure4(false, 1)
		if err != nil {
			b.Fatal(err)
		}
		printExhibit("figure4", s.Render())
		fast, err := core.MeasureUnalignedMin(30)
		if err != nil {
			b.Fatal(err)
		}
		crossover, err = swizzle.Fig4Crossover(fast.RoundTripMicros(), 2, 50)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(crossover), "eager_wins_from_ptrs")
}

// BenchmarkFigures12Trace renders the two delivery-path event traces.
func BenchmarkFigures12Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.TraceDelivery()
		if err != nil {
			b.Fatal(err)
		}
		printExhibit("trace", out)
	}
}

// BenchmarkAblationHardware measures the delivery-mechanism ablation
// (paper estimate: hardware buys 2-3x over the software fast path).
func BenchmarkAblationHardware(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.AblationHardware)
		printExhibit("ablA", t.Render())
		hw, err := core.MeasureSimpleException(core.ModeHardware, 30)
		if err != nil {
			b.Fatal(err)
		}
		sw, err := core.MeasureSimpleException(core.ModeFast, 30)
		if err != nil {
			b.Fatal(err)
		}
		ratio = sw.RoundTrip / hw.RoundTrip
	}
	b.ReportMetric(ratio, "hw_over_sw_x")
}

// BenchmarkAblationEager measures eager amplification on/off.
func BenchmarkAblationEager(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.AblationEager)
		printExhibit("ablB", t.Render())
		eager, err := core.MeasureWriteProt(core.ModeFast, true, 30)
		if err != nil {
			b.Fatal(err)
		}
		noEager, err := core.MeasureWriteProt(core.ModeFast, false, 30)
		if err != nil {
			b.Fatal(err)
		}
		saved = noEager.RoundTripMicros() - eager.RoundTripMicros()
	}
	b.ReportMetric(saved, "eager_saves_µs")
}

// BenchmarkAblationSubpage measures the subpage emulation trade-off.
func BenchmarkAblationSubpage(b *testing.B) {
	var emul float64
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.AblationSubpage)
		printExhibit("ablC", t.Render())
		sp, err := core.MeasureSubpage(30)
		if err != nil {
			b.Fatal(err)
		}
		emul = core.Micros(uint64(sp.EmulRT))
	}
	b.ReportMetric(emul, "emulation_µs")
}

// benchCampaignSeeds sizes the campaign benchmarks to the tier-1
// smoke campaign.
const benchCampaignSeeds = 30

// benchEngines are the execution tiers the engine benchmarks compare:
// the JIT (the default), the pre-JIT fast-path interpreter, and the
// uncached reference interpreter.
var benchEngines = []struct {
	name   string
	engine cpu.Engine
}{{"jit", cpu.EngineJIT}, {"fast", cpu.EngineFast}, {"interp", cpu.EngineInterp}}

// forEachEngine runs bench once per execution tier as a sub-benchmark
// (BenchmarkStepLoop/jit, .../fast, .../interp), so one `go test
// -bench` run compares all three. Machines pick the tier up from
// cpu.DefaultEngine at checkout; it is restored after each leg.
func forEachEngine(b *testing.B, bench func(b *testing.B)) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			prev := cpu.DefaultEngine
			cpu.DefaultEngine = e.engine
			defer func() { cpu.DefaultEngine = prev }()
			bench(b)
		})
	}
}

func benchCampaign(b *testing.B, workers int) {
	b.Helper()
	var fp string
	for i := 0; i < b.N; i++ {
		swept, err := harness.Campaign.Resume(context.Background(),
			sweep.Options{Seeds: benchCampaignSeeds, Workers: workers}, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := swept.Err(); err != nil {
			b.Fatalf("%v:\n%s", err, swept.Summary())
		}
		res := swept.(*harness.CampaignResult)
		if fp == "" {
			fp = res.Fingerprints[0]
		} else if fp != res.Fingerprints[0] {
			b.Fatal("campaign fingerprints drifted across iterations")
		}
		b.ReportMetric(float64(res.Runs), "runs")
	}
}

// BenchmarkCampaignSerial is the serial baseline for the sharded
// campaign engine: the tier-1 smoke campaign on one worker, under each
// execution tier.
func BenchmarkCampaignSerial(b *testing.B) {
	forEachEngine(b, func(b *testing.B) { benchCampaign(b, 1) })
}

// BenchmarkCampaignParallel4 runs the same campaign sharded over four
// workers with deterministic merging; compare ns/op against
// BenchmarkCampaignSerial/jit for the engine's wall-clock speedup (it
// tracks available cores — on a single-CPU host it can only match the
// serial time).
func BenchmarkCampaignParallel4(b *testing.B) { benchCampaign(b, 4) }

// BenchmarkCampaignParallel uses every core (the uexc-bench default).
func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, 0) }

// benchInterp retires b.N instructions of the given user program
// through CPU.Run and reports simulated MIPS (millions of simulated
// instructions per host second) as a custom metric. The program must
// run far longer than any plausible b.N.
//
// The livelock watchdog is a Run-loop service rather than part of any
// engine, so it is detached here: raw engine throughput is what the
// benchmark measures.
func benchInterp(b *testing.B, src string) {
	b.Helper()
	m, err := core.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadProgram(src); err != nil {
		b.Fatal(err)
	}
	c := m.CPU()
	c.Watchdog = nil
	start := c.Insts
	b.ResetTimer()
	n, err := c.Run(uint64(b.N))
	b.StopTimer()
	if !errors.Is(err, cpu.ErrBudget) {
		b.Fatalf("Run: got %v (retired %d), want budget exhaustion", err, n)
	}
	if c.Halted {
		b.Fatal("benchmark program exited early")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(c.Insts-start)/1e6/s, "sim_MIPS")
	}
}

// BenchmarkStepLoop measures raw interpreter throughput on a tight
// register-only loop: the fetch/decode/execute path with no memory
// traffic beyond the instruction stream.
func BenchmarkStepLoop(b *testing.B) {
	forEachEngine(b, func(b *testing.B) { benchInterp(b, stepLoopSrc) })
}

const stepLoopSrc = `
main:
	li    s0, 0x7fffffff
	li    s1, 0
loop:
	addiu s0, s0, -1
	xor   s1, s1, s0
	sltu  t0, s1, s0
	addu  s2, s2, t0
	bnez  s0, loop
	nop
	li    v0, 0
	jr    ra
	nop
`

// BenchmarkMemcpyProgram measures interpreter throughput on a
// load/store-dominated workload: a 4 KB word-by-word copy loop, so
// every iteration exercises instruction fetch plus a data-TLB
// translation and physical access for both a load and a store.
func BenchmarkMemcpyProgram(b *testing.B) {
	forEachEngine(b, func(b *testing.B) { benchInterp(b, memcpySrc) })
}

const memcpySrc = `
main:
	la    s0, bench_src
	la    s1, bench_dst
outer:
	move  t0, s0
	move  t1, s1
	li    t2, 1024            # words per 4 KB page
copy:
	lw    t3, 0(t0)
	sw    t3, 0(t1)
	addiu t0, t0, 4
	addiu t1, t1, 4
	addiu t2, t2, -1
	bnez  t2, copy
	nop
	b     outer
	nop
bench_src:
	.space 4096
bench_dst:
	.space 4096
`

// BenchmarkSimulatorThroughput measures the host-side simulator itself:
// simulated instructions per host second (not a paper exhibit; a
// usefulness check for the substrate).
func BenchmarkSimulatorThroughput(b *testing.B) {
	m, err := core.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadProgram(`
main:
	li    s0, 1000000
loop:
	addiu s0, s0, -1
	bnez  s0, loop
	nop
	li    v0, 0
	jr    ra
	nop
`); err != nil {
		b.Fatal(err)
	}
	c := m.CPU()
	b.ResetTimer()
	done := uint64(0)
	for i := 0; i < b.N; i++ {
		if c.Halted {
			break
		}
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
		done++
	}
	b.ReportMetric(float64(done), "sim_insts")
}

// BenchmarkAblationProtChange measures the three user-level protection
// change mechanisms (§2.2 hardware U bit, §3.2.3 emulated opcode,
// mprotect).
func BenchmarkAblationProtChange(b *testing.B) {
	var hw, emul, sys float64
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.AblationProtChange)
		printExhibit("ablD", t.Render())
		var err error
		if hw, err = core.MeasureProtChange(core.ProtMechHardware, 30); err != nil {
			b.Fatal(err)
		}
		if emul, err = core.MeasureProtChange(core.ProtMechEmulated, 30); err != nil {
			b.Fatal(err)
		}
		if sys, err = core.MeasureProtChange(core.ProtMechSyscall, 30); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hw/25, "hw_µs")
	b.ReportMetric(emul/25, "emul_µs")
	b.ReportMetric(sys/25, "mprotect_µs")
}

// BenchmarkAblationVector measures the per-exception vector-table
// dispatch against the single-handler path (§2.2 design point).
func BenchmarkAblationVector(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.AblationVector)
		printExhibit("ablE", t.Render())
		vec, err := core.MeasureVectoredDispatch(30)
		if err != nil {
			b.Fatal(err)
		}
		single, err := core.MeasureSimpleException(core.ModeFast, 30)
		if err != nil {
			b.Fatal(err)
		}
		delta = vec.RoundTrip - single.RoundTrip
	}
	b.ReportMetric(delta, "dispatch_cycles")
}

// BenchmarkSensitivity probes the calibration robustness of the
// headline claim (±30% scaling of the modeled C-phase charges).
func BenchmarkSensitivity(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		t := renderOrFatal(b, harness.Sensitivity)
		printExhibit("sens", t.Render())
		pts, err := core.MeasureSensitivity([]float64{0.7, 1.0, 1.3}, 25)
		if err != nil {
			b.Fatal(err)
		}
		worst = pts[0].Speedup
		for _, p := range pts {
			if p.Speedup < worst {
				worst = p.Speedup
			}
		}
	}
	b.ReportMetric(worst, "worst_case_speedup_x")
}
