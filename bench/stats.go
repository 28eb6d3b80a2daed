package main

import (
	"math"
	"sort"
	"time"
)

// decl names one reported metric, its unit, and which direction is
// better. The lists below are the benchmark's contract with
// BENCHMARK.json: a run with -trace 0 reports exactly endToEnd, a run
// with -trace 1 exactly perLayer, on every workload (bench_test.go
// checks both against the file).
type decl struct{ name, unit, better string }

var endToEnd = []decl{
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"paper_err_pct", "%", "lower"},
}

// exhibits are the span names of the paper workload's exhibit calls, in
// harness.All order with the five ablations folded into one.
var exhibits = []string{"table1", "table2", "table3", "table4", "table5",
	"figure3", "figure4", "ablations", "sensitivity", "trace"}

// phases are Table 3's kernel fast-path phases.
var phases = []string{"decode", "compat", "save", "fpcheck", "tlbcheck", "vector"}

var perLayer = func() []decl {
	d := []decl{
		{"bench.ops", "count", "higher"},
		{"bench.op_ms.p50", "ms", "lower"},
		{"bench.op_ms.tail", "ms", "lower"},
		{"bench.host_speed", "ratio", "higher"},
		{"bench.live_heap_mb", "MiB", "lower"},
		{"trace.overhead_frac", "frac", "lower"},
		{"trace.spans", "count", "higher"},
		{"parallel.busy_frac", "frac", "higher"},
	}
	for _, e := range exhibits {
		d = append(d, decl{"harness.exhibit_frac." + e, "frac", "lower"})
	}
	d = append(d,
		decl{"faultinject.events_per_seed", "count", "higher"},
		decl{"kernel.insts_per_op", "count", "lower"},
		decl{"server.admit_frac", "frac", "lower"},
		decl{"server.wait_frac", "frac", "lower"},
		decl{"server.exec_frac", "frac", "higher"},
		decl{"server.stream_frac", "frac", "lower"},
		decl{"server.late_send_frac", "frac", "lower"},
		decl{"server.tail_over_p50", "ratio", "lower"},
		decl{"server.pool_hit_rate", "frac", "higher"},
		decl{"progen.generate_us", "us", "lower"},
		decl{"progen.source_kb", "KiB", "lower"},
		decl{"asm.load_us.p50", "us", "lower"},
		decl{"asm.load_us.tail", "us", "lower"},
		decl{"asm.load_hot_us", "us", "lower"},
		decl{"core.get_us", "us", "lower"},
		decl{"core.put_us", "us", "lower"},
		decl{"core.fork_us", "us", "lower"},
		decl{"core.boot_us", "us", "lower"},
		decl{"core.restore_us", "us", "lower"},
		decl{"core.restore_pages", "pages", "lower"},
		decl{"cpu.run_us", "us", "lower"},
		decl{"cpu.ns_per_inst", "ns/inst", "lower"},
		decl{"cpu.jit_execs_per_block", "ratio", "higher"},
		decl{"cpu.jit_guard_miss_frac", "frac", "lower"},
		decl{"cpu.tlb_miss_frac", "frac", "lower"},
		decl{"kernel.sim_insts", "insts", "lower"},
		decl{"kernel.sim_cycles", "cycles", "lower"},
		decl{"kernel.fast_deliveries", "count", "higher"},
		decl{"kernel.unix_deliveries", "count", "lower"},
		decl{"kernel.fast_rt_cycles", "cycles", "lower"},
		decl{"kernel.ultrix_rt_cycles", "cycles", "lower"},
		decl{"kernel.hw_rt_cycles", "cycles", "lower"},
	)
	for _, p := range phases {
		d = append(d, decl{"kernel.phase_insts." + p, "insts", "lower"})
	}
	return d
}()

// quantile returns the nearest-rank q-quantile of xs (0 for no
// samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the highest of the candidate percentiles that still has at
// least ten samples beyond it, so a reported tail is never one or two
// outliers. With fewer than 20 samples only the median qualifies.
func tailQ(n int) float64 {
	for _, perMille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-perMille) >= 10*1000 {
			return float64(perMille) / 1000
		}
	}
	return 0.5
}

// tail returns the tailQ(len(xs)) quantile of xs and the quantile used.
func tail(xs []float64) (v, q float64) {
	q = tailQ(len(xs))
	return quantile(xs, q), q
}

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio divides, reading 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
