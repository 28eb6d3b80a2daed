// Package harness regenerates every table and figure of the paper's
// evaluation from the simulator, in the layouts of the original
// exhibits. It is shared by cmd/uexc-bench and the bench/ module's
// paper workload.
package harness

import (
	"fmt"
	"strings"

	"uexc/internal/analytic"
	"uexc/internal/apps/gcsim"
	"uexc/internal/apps/swizzle"
	"uexc/internal/core"
	"uexc/internal/osmodel"
	"uexc/internal/parallel"
	"uexc/internal/report"
	"uexc/internal/simos"
)

// benchN is the per-microbenchmark exception count; the machine is
// deterministic so modest counts suffice.
const benchN = 40

// Table1 reproduces the cross-system survey. The Ultrix column is
// measured live on the simulator; the other systems are the calibrated
// pipeline models of internal/osmodel.
func Table1() (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 1: exception delivery cost across 1994 systems (µs)",
		Headers: []string{"Operation"},
		Note: "Ultrix column measured on this simulator; others are pipeline models " +
			"calibrated to anchors quoted in the paper (NT and OSF/1 have no anchors: estimates).",
	}
	systems := osmodel.Systems()
	for _, s := range systems {
		h := s.Name
		if s.Estimated {
			h += " (est)"
		}
		t.Headers = append(t.Headers, h)
	}

	ult, err := core.MeasureSimpleException(core.ModeUltrix, benchN)
	if err != nil {
		return nil, err
	}
	wp, err := core.MeasureWriteProt(core.ModeUltrix, false, benchN)
	if err != nil {
		return nil, err
	}

	deliver := []string{"Deliver to null handler"}
	deliverWP := []string{"Deliver write-prot exception"}
	ret := []string{"Return from handler"}
	rt := []string{"Round trip (deliver + return)"}
	for _, s := range systems {
		if strings.HasPrefix(s.Name, "Ultrix") {
			deliver = append(deliver, report.Micros(ult.DeliverMicros()))
			deliverWP = append(deliverWP, report.Micros(wp.DeliverMicros()))
			ret = append(ret, report.Micros(ult.ReturnMicros()))
			rt = append(rt, report.Micros(ult.RoundTripMicros()))
			continue
		}
		deliver = append(deliver, report.Micros(s.DeliverMicros()))
		deliverWP = append(deliverWP, report.Micros(s.DeliverWriteProtMicros()))
		ret = append(ret, report.Micros(s.ReturnMicros()))
		rt = append(rt, report.Micros(s.RoundTripMicros()))
	}
	t.Rows = [][]string{deliver, deliverWP, ret, rt}
	return t, nil
}

// Table2 reproduces the fast-mechanism microbenchmarks next to the
// Ultrix baseline and the paper's published values.
func Table2() (*report.Table, error) {
	fast, err := core.MeasureSimpleException(core.ModeFast, benchN)
	if err != nil {
		return nil, err
	}
	ult, err := core.MeasureSimpleException(core.ModeUltrix, benchN)
	if err != nil {
		return nil, err
	}
	wpF, err := core.MeasureWriteProt(core.ModeFast, true, benchN)
	if err != nil {
		return nil, err
	}
	wpU, err := core.MeasureWriteProt(core.ModeUltrix, false, benchN)
	if err != nil {
		return nil, err
	}
	sp, err := core.MeasureSubpage(benchN)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   "Table 2: performance of exception functions (µs)",
		Headers: []string{"Operation", "Fast (measured)", "Ultrix (measured)", "Fast (paper)", "Ultrix (paper)"},
	}
	t.AddRow("Deliver simple exception to null user handler",
		report.Micros(fast.DeliverMicros()), report.Micros(ult.DeliverMicros()), "5", "~55")
	t.AddRow("Deliver write-prot exception to null handler",
		report.Micros(wpF.DeliverMicros()), report.Micros(wpU.DeliverMicros()), "15", "60")
	t.AddRow("Deliver subpage exception to null handler",
		report.Micros(sp.Delivered.DeliverMicros()), "-", "19", "-")
	t.AddRow("Return from null handler",
		report.Micros(fast.ReturnMicros()), report.Micros(ult.ReturnMicros()), "3", "~25")
	t.AddRow("Simple exception round trip (rows 1+4)",
		report.Micros(fast.RoundTripMicros()), report.Micros(ult.RoundTripMicros()), "8", "80")
	t.AddRow("Write-prot fault + eager-amplified retry (§3.3)",
		report.Micros(wpF.RoundTripMicros()), "-", "18", "-")
	t.AddRow("Subpage store emulated by kernel (§3.2.4, transparent)",
		report.Micros(core.Micros(uint64(sp.EmulRT))), "-", "-", "-")
	return t, nil
}

// Table3 reproduces the kernel fast-path instruction counts by
// executing the path with per-PC counting.
func Table3() (*report.Table, error) {
	pc, err := core.MeasureKernelPhases()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Table 3: kernel exception handler instruction count summary",
		Headers: []string{"Operation", "Measured", "Paper"},
		Note:    "counts are dynamic instructions executed between phase labels for one simple exception",
	}
	t.AddRow("Decode exception", fmt.Sprint(pc.Decode), "6")
	t.AddRow("Compatibility check", fmt.Sprint(pc.Compat), "11")
	t.AddRow("Save partial state", fmt.Sprint(pc.Save), "31")
	t.AddRow("Floating point check", fmt.Sprint(pc.FPCheck), "6")
	t.AddRow("Check for TLB fault", fmt.Sprint(pc.TLBCheck), "8")
	t.AddRow("Vector to user", fmt.Sprint(pc.Vector), "3")
	t.AddRow("Total", fmt.Sprint(pc.Total()), "65")
	return t, nil
}

// Table4 reproduces the generational-GC comparison.
func Table4() (*report.Table, error) {
	ultCosts, err := simos.Measure(core.ModeUltrix)
	if err != nil {
		return nil, err
	}
	fastCosts, err := simos.Measure(core.ModeFast)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title: "Table 4: comparative performance of generational garbage collection",
		Headers: []string{"Application", "Ultrix SIGSEGV (s)", "Fast exceptions (s)",
			"Improvement", "Faults", "Collections", "Paper"},
	}
	for _, wl := range []struct {
		name  string
		run   func(...gcsim.Config) []gcsim.Result
		paper string
	}{
		{"Lisp operations", gcsim.LispOps, "24 vs 23 (4%)"},
		{"Array test", gcsim.ArrayTest, "2 vs 1.8 (10%)"},
	} {
		rs := wl.run(gcsim.Config{Barrier: gcsim.BarrierSigsegv, Costs: ultCosts},
			gcsim.Config{Barrier: gcsim.BarrierFastEager, Costs: fastCosts})
		u, f := rs[0], rs[1]
		imp := 100 * (u.Seconds - f.Seconds) / u.Seconds
		t.AddRow(wl.name, report.Seconds(u.Seconds), report.Seconds(f.Seconds),
			report.Pct(imp), fmt.Sprint(u.Stats.Faults), fmt.Sprint(u.Stats.Collections), wl.paper)
	}
	return t, nil
}

// Table5 reproduces the break-even analysis between software write
// barriers and protection exceptions, with c and t counted from the
// workloads and y = c·x/(f·t) at x = 5 cycles, f = 25 MHz.
func Table5() (*report.Table, error) {
	fastCosts, err := simos.Measure(core.ModeFast)
	if err != nil {
		return nil, err
	}
	ultCosts, err := simos.Measure(core.ModeUltrix)
	if err != nil {
		return nil, err
	}
	fastRT := simos.Micros(fastCosts.ProtFaultRT)
	ultRT := simos.Micros(ultCosts.ProtFaultRT)

	t := &report.Table{
		Title: "Table 5: break-even exception cost y (µs) vs software checks (x=5 cycles, f=25 MHz)",
		Headers: []string{"Application", "Checks c", "Traps t", "Break-even y (µs)",
			"Fast cost (µs)", "Fast wins?", "Ultrix cost (µs)", "Ultrix wins?"},
		Note: "exceptions beat inline checks when the per-exception cost is below y; the paper's " +
			"fast exception+reprotect cost is 18 µs — the shift the table demonstrates",
	}
	for _, wl := range []struct {
		name string
		run  func(...gcsim.Config) []gcsim.Result
	}{
		{"Tree", gcsim.TreeWorkload},
		{"Interactive", gcsim.InteractiveWorkload},
	} {
		rs := wl.run(gcsim.Config{Barrier: gcsim.BarrierSoftware, Costs: fastCosts},
			gcsim.Config{Barrier: gcsim.BarrierFastEager, Costs: fastCosts})
		sw, pp := rs[0], rs[1]
		row := analytic.MakeTable5Row(wl.name, sw.Stats.Checks, uint64(pp.Stats.Faults), fastRT)
		win := map[bool]string{true: "yes", false: "no"}
		t.AddRow(row.App, fmt.Sprint(row.Checks), fmt.Sprint(row.Traps),
			fmt.Sprintf("%.1f", row.BreakEvenMicro),
			fmt.Sprintf("%.1f", row.FastCostMicro), win[row.ExceptionsWin],
			fmt.Sprintf("%.1f", ultRT), win[ultRT < row.BreakEvenMicro])
	}
	return t, nil
}

// Figure3 regenerates the swizzling break-even curves (uses per pointer
// at which exceptions beat per-dereference checks), from measured
// exception costs, and validates three points by running the object
// store to its empirical crossover. Validation sweep points are
// sharded across `workers` goroutines (0 = GOMAXPROCS, 1 = serial) and
// merged in point order.
func Figure3(validate bool, workers int) (*report.Series, error) {
	fast, err := core.MeasureUnalignedMin(benchN)
	if err != nil {
		return nil, err
	}
	ult, err := core.MeasureSimpleException(core.ModeUltrix, benchN)
	if err != nil {
		return nil, err
	}
	fastUS, ultUS := fast.RoundTripMicros(), ult.RoundTripMicros()

	pts := analytic.Figure3Series(20, ultUS, fastUS)
	s := &report.Series{
		Title:   "Figure 3: exceptions vs software checks for swizzling (break-even uses per pointer)",
		XLabel:  "check cycles",
		YLabels: []string{"Ultrix curve", "Fast curve"},
		XFmt:    "%.0f",
		Note: fmt.Sprintf("curves u = f·y/c with measured y: Ultrix %.1fµs, fast specialized handler %.1fµs; "+
			"software checks win below a curve", ultUS, fastUS),
	}
	for _, p := range pts {
		s.X = append(s.X, p.CheckCycles)
	}
	s.Y = make([][]float64, 2)
	for _, p := range pts {
		s.Y[0] = append(s.Y[0], p.UsesUltrix)
		s.Y[1] = append(s.Y[1], p.UsesFast)
	}
	if validate {
		// Each sweep point boots its own object store; shard them and
		// merge the check strings by point index.
		costs := []float64{5, 10, 20}
		checks := parallel.Map(workers, len(costs), func(i int) crossoverCheck {
			c := costs[i]
			emp, err := swizzle.Fig3Crossover(c, fastUS, 600)
			if err != nil {
				return crossoverCheck{err: err}
			}
			ana := analytic.SwizzleBreakEvenUses(c, fastUS, 25)
			return crossoverCheck{text: fmt.Sprintf("c=%.0f: empirical %d vs analytic %.1f", c, emp, ana)}
		})
		texts, err := collectChecks(checks)
		if err != nil {
			return nil, err
		}
		s.Note += "; store-validated crossovers: " + strings.Join(texts, ", ")
	}
	return s, nil
}

// crossoverCheck is one validated figure sweep point; merged by index.
type crossoverCheck struct {
	text string
	err  error
}

// collectChecks folds sharded sweep-point results in index order,
// surfacing the first (lowest-index) error exactly as the serial loop
// would have.
func collectChecks(checks []crossoverCheck) ([]string, error) {
	texts := make([]string, 0, len(checks))
	for _, c := range checks {
		if c.err != nil {
			return nil, c.err
		}
		texts = append(texts, c.text)
	}
	return texts, nil
}

// Figure4 regenerates the eager-vs-lazy swizzling break-even curves
// (fraction of a page's 50 pointers that must be used before eager
// wins) and validates points against the object store, sharding the
// validation sweep like Figure3.
func Figure4(validate bool, workers int) (*report.Series, error) {
	fast, err := core.MeasureUnalignedMin(benchN)
	if err != nil {
		return nil, err
	}
	ult, err := core.MeasureSimpleException(core.ModeUltrix, benchN)
	if err != nil {
		return nil, err
	}
	fastUS, ultUS := fast.RoundTripMicros(), ult.RoundTripMicros()

	const pn = 50
	pts := analytic.Figure4Series(10, 0.5, pn, ultUS, fastUS)
	s := &report.Series{
		Title:   "Figure 4: eager vs lazy swizzling (break-even fraction of pointers used, pn=50)",
		XLabel:  "swizzle cost s (µs)",
		YLabels: []string{"Ultrix curve", "Fast curve"},
		Note: fmt.Sprintf("pu*(s)/pn with measured exception costs: Ultrix %.1fµs, fast %.1fµs; "+
			"eager swizzling wins above a curve — the fast mechanism broadens lazy's range", ultUS, fastUS),
		YFmt: "%.3f",
	}
	for _, p := range pts {
		s.X = append(s.X, p.SwizzleMicros)
	}
	s.Y = make([][]float64, 2)
	for _, p := range pts {
		s.Y[0] = append(s.Y[0], p.FracUltrix)
		s.Y[1] = append(s.Y[1], p.FracFast)
	}
	if validate {
		costs := []float64{1, 2, 4}
		checks := parallel.Map(workers, len(costs), func(i int) crossoverCheck {
			sc := costs[i]
			empF, err := swizzle.Fig4Crossover(fastUS, sc, pn)
			if err != nil {
				return crossoverCheck{err: err}
			}
			empU, err := swizzle.Fig4Crossover(ultUS, sc, pn)
			if err != nil {
				return crossoverCheck{err: err}
			}
			return crossoverCheck{text: fmt.Sprintf("s=%.0fµs: eager wins from %d (fast) / %d (ultrix) of %d used",
				sc, empF, empU, pn)}
		})
		texts, err := collectChecks(checks)
		if err != nil {
			return nil, err
		}
		s.Note += "; store-validated: " + strings.Join(texts, ", ")
	}
	return s, nil
}

// AblationHardware compares the three delivery mechanisms on simple
// exceptions (the paper's §3 2-3x hardware estimate).
func AblationHardware() (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation A: delivery mechanism (simple exception, µs)",
		Headers: []string{"Mechanism", "Deliver", "Return", "Round trip", "vs Ultrix"},
		Note:    "paper §3: hardware vectoring is estimated to buy another 2-3x over the software fast path",
	}
	var base float64
	for _, mode := range []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware} {
		tm, err := core.MeasureSimpleException(mode, benchN)
		if err != nil {
			return nil, err
		}
		if mode == core.ModeUltrix {
			base = tm.RoundTrip
		}
		t.AddRow(mode.String(), report.Micros(tm.DeliverMicros()),
			report.Micros(tm.ReturnMicros()), report.Micros(tm.RoundTripMicros()),
			fmt.Sprintf("%.1fx", base/tm.RoundTrip))
	}
	return t, nil
}

// AblationEager compares eager amplification on and off for
// write-protection faults (§3.2.3).
func AblationEager() (*report.Table, error) {
	eager, err := core.MeasureWriteProt(core.ModeFast, true, benchN)
	if err != nil {
		return nil, err
	}
	noEager, err := core.MeasureWriteProt(core.ModeFast, false, benchN)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Ablation B: eager amplification (write-protection fault, µs)",
		Headers: []string{"Configuration", "Deliver", "Round trip incl. retry"},
		Note:    "without eager amplification the user handler must unprotect via a system call before resuming",
	}
	t.AddRow("Eager amplification", report.Micros(eager.DeliverMicros()), report.Micros(eager.RoundTripMicros()))
	t.AddRow("No amplification (handler mprotects)", report.Micros(noEager.DeliverMicros()), report.Micros(noEager.RoundTripMicros()))
	return t, nil
}

// AblationSubpage reports the §3.2.4 trade-off: delivery on protected
// subpages vs transparent kernel emulation on unprotected ones, and the
// modeled overhead as a function of unrelated-subpage activity.
func AblationSubpage() (*report.Table, error) {
	sp, err := core.MeasureSubpage(benchN)
	if err != nil {
		return nil, err
	}
	emulUS := core.Micros(uint64(sp.EmulRT))
	t := &report.Table{
		Title:   "Ablation C: subpage protection (1 KB logical pages on 4 KB hardware pages)",
		Headers: []string{"Case", "Cost (µs)"},
		Note: "the indirect cost grows with activity on unrelated subpages of protected pages " +
			"(each such store is emulated by the kernel)",
	}
	t.AddRow("Store to protected subpage (delivered)", report.Micros(sp.Delivered.DeliverMicros()))
	t.AddRow("Store to unprotected subpage (kernel emulates)", report.Micros(emulUS))
	for _, milli := range []int{1, 10, 100} {
		frac := float64(milli) / 1000
		t.AddRow(fmt.Sprintf("Modeled overhead at %.1f%% unrelated-store rate (per 1000 stores)", 100*frac),
			report.Micros(frac*1000*emulUS))
	}
	return t, nil
}

// AblationProtChange compares the three user-level protection-change
// mechanisms the paper discusses: the proposed hardware U-bit
// instruction (§2.2), kernel emulation of the same opcode (§3.2.3's
// software variant), and the conventional mprotect system call.
func AblationProtChange() (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation D: changing page protection from user level (µs per change)",
		Headers: []string{"Mechanism", "Cost"},
		Note: "the paper's §3.2.3 caveat reproduced: the trapped-opcode emulation pays a full " +
			"exception plus the page-table work, landing above even the system call",
	}
	for _, mech := range []core.ProtMech{core.ProtMechHardware, core.ProtMechEmulated, core.ProtMechSyscall} {
		cyc, err := core.MeasureProtChange(mech, benchN)
		if err != nil {
			return nil, err
		}
		t.AddRow(mech.String(), fmt.Sprintf("%.2f", cyc/25))
	}
	return t, nil
}

// AblationVector compares single-handler delivery with the §2.2
// vector-table design point (per-exception dispatch).
func AblationVector() (*report.Table, error) {
	single, err := core.MeasureSimpleException(core.ModeFast, benchN)
	if err != nil {
		return nil, err
	}
	vec, err := core.MeasureVectoredDispatch(benchN)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Ablation E: single handler vs per-exception vector table (simple exception, µs)",
		Headers: []string{"Dispatch", "Deliver", "Round trip"},
		Note: fmt.Sprintf("table dispatch adds %.0f cycles — the paper's judgment that vectoring "+
			"hardware buys \"little likely performance gain\" holds at user level too",
			vec.RoundTrip-single.RoundTrip),
	}
	t.AddRow("Single registered handler", report.Micros(single.DeliverMicros()), report.Micros(single.RoundTripMicros()))
	t.AddRow("Per-exception vector table", report.Micros(vec.DeliverMicros()), report.Micros(vec.RoundTripMicros()))
	return t, nil
}

// Sensitivity probes the calibrated portion of the reproduction: the
// kernel's modeled C-phase charges are scaled ±30% and the headline
// comparison re-measured. The fast path is executed rather than
// modeled, so it should barely move.
func Sensitivity() (*report.Table, error) {
	pts, err := core.MeasureSensitivity([]float64{0.7, 0.85, 1.0, 1.15, 1.3}, benchN)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Sensitivity: headline claim vs calibration error in modeled C-phase costs",
		Headers: []string{"C-phase cost scale", "Fast rt (µs)", "Ultrix rt (µs)", "Speedup"},
		Note: "the fast path's cost is executed instructions (model-free); only the Ultrix " +
			"baseline depends on the calibrated charges — the order-of-magnitude claim survives ±30%",
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%.2f", p.Scale), report.Micros(p.FastRTMicro),
			report.Micros(p.UltRTMicro), fmt.Sprintf("%.1fx", p.Speedup))
	}
	return t, nil
}

// All renders every exhibit in order. Each exhibit boots its own
// measurement machines, so the steps are independent shards: they run
// across `workers` goroutines (0 = GOMAXPROCS, 1 = serial) and are
// concatenated strictly in exhibit order, making the output
// byte-identical for any worker count. On a failure, the exhibits
// before the first (lowest-index) error are returned with it, exactly
// as the serial run would.
func All(validate bool, workers int) (string, error) {
	steps := []func() (string, error){
		func() (string, error) { t, err := Table1(); return render(t, err) },
		func() (string, error) { t, err := Table2(); return render(t, err) },
		func() (string, error) { t, err := Table3(); return render(t, err) },
		func() (string, error) { t, err := Table4(); return render(t, err) },
		func() (string, error) { t, err := Table5(); return render(t, err) },
		func() (string, error) { s, err := Figure3(validate, 1); return renderS(s, err) },
		func() (string, error) { s, err := Figure4(validate, 1); return renderS(s, err) },
		func() (string, error) { t, err := AblationHardware(); return render(t, err) },
		func() (string, error) { t, err := AblationEager(); return render(t, err) },
		func() (string, error) { t, err := AblationSubpage(); return render(t, err) },
		func() (string, error) { t, err := AblationProtChange(); return render(t, err) },
		func() (string, error) { t, err := AblationVector(); return render(t, err) },
		func() (string, error) { t, err := Sensitivity(); return render(t, err) },
	}
	type stepOut struct {
		out string
		err error
	}
	outs := parallel.Map(workers, len(steps), func(i int) stepOut {
		out, err := steps[i]()
		return stepOut{out, err}
	})
	var b strings.Builder
	for _, s := range outs {
		if s.err != nil {
			return b.String(), s.err
		}
		b.WriteString(s.out)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func render(t *report.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}

func renderS(s *report.Series, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return s.Render(), nil
}
