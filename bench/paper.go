package main

import (
	"fmt"
	"strings"
	"time"

	"uexc/internal/harness"
	"uexc/internal/parallel"
	"uexc/internal/report"
)

// paperPass regenerates every exhibit the way `uexc-bench -all -trace`
// does: harness.All on the fixed worker count, then the delivery traces.
func paperPass() (string, error) {
	all, err := harness.All(false, workers)
	if err != nil {
		return "", fmt.Errorf("exhibits: %w", err)
	}
	tr, err := harness.TraceDelivery()
	if err != nil {
		return "", fmt.Errorf("delivery trace: %w", err)
	}
	return all + tr, nil
}

// exhibitSteps are harness.All's steps as separately callable
// functions, each tagged with its span name, so a traced pass can time
// every exhibit. Concatenating their outputs, each followed by a
// newline, reproduces harness.All byte for byte (checked every pass).
var exhibitSteps = []struct {
	name string
	run  func() (string, error)
}{
	{"table1", table(harness.Table1)},
	{"table2", table(harness.Table2)},
	{"table3", table(harness.Table3)},
	{"table4", table(harness.Table4)},
	{"table5", table(harness.Table5)},
	{"figure3", func() (string, error) { return series(harness.Figure3(false, 1)) }},
	{"figure4", func() (string, error) { return series(harness.Figure4(false, 1)) }},
	{"ablations", table(harness.AblationHardware)},
	{"ablations", table(harness.AblationEager)},
	{"ablations", table(harness.AblationSubpage)},
	{"ablations", table(harness.AblationProtChange)},
	{"ablations", table(harness.AblationVector)},
	{"sensitivity", table(harness.Sensitivity)},
}

func table(f func() (*report.Table, error)) func() (string, error) {
	return func() (string, error) {
		t, err := f()
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}
}

func series(s *report.Series, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return s.Render(), nil
}

// tracedPaperPass is paperPass with one span per exhibit call, the
// exhibits sharded over the same worker count harness.All uses.
func tracedPaperPass(tr *tracer, pass int) (string, error) {
	req := fmt.Sprintf("pass-%d", pass)
	start := time.Now()
	type out struct {
		text  string
		err   error
		begin time.Time
		end   time.Time
	}
	outs := parallel.Map(workers, len(exhibitSteps), func(i int) out {
		begin := time.Now()
		text, err := exhibitSteps[i].run()
		return out{text, err, begin, time.Now()}
	})
	traceBegin := time.Now()
	text, err := harness.TraceDelivery()
	traceEnd := time.Now()
	if err != nil {
		return "", fmt.Errorf("delivery trace: %w", err)
	}
	pid := tr.add(0, "bench", "pass", req, start, traceEnd)
	var b strings.Builder
	for i, o := range outs {
		if o.err != nil {
			return "", fmt.Errorf("%s: %w", exhibitSteps[i].name, o.err)
		}
		b.WriteString(o.text)
		b.WriteByte('\n')
		tr.add(pid, "harness", exhibitSteps[i].name, req, o.begin, o.end)
	}
	b.WriteString(text)
	tr.add(pid, "harness", "trace", req, traceBegin, traceEnd)
	return b.String(), nil
}

// runPaper measures warm regeneration passes of the paper's exhibits.
// The cold first pass is the reference every later pass must match
// byte for byte. In a traced run, odd passes are traced and even ones
// are not, so the tracing overhead is measured on interleaved passes.
func runPaper(cfg config, res *result, tr *tracer, host *hostClock) error {
	ref, err := paperPass()
	if err != nil {
		return err
	}
	var plain, traced []float64
	allocs := totalAlloc()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; pass < cfg.minRounds || time.Now().Before(deadline); pass++ {
		host.tick()
		res.Attempted++
		start := time.Now()
		var out string
		if tr != nil && pass%2 == 1 {
			out, err = tracedPaperPass(tr, pass)
			traced = append(traced, ms(time.Since(start)))
		} else {
			out, err = paperPass()
			plain = append(plain, ms(time.Since(start)))
		}
		switch {
		case err != nil:
			res.Failed++
			res.fail("pass %d: %v", pass, err)
		case out != ref:
			res.Failed++
			res.fail("pass %d output differs from the cold pass", pass)
		}
		if pass == cfg.minRounds-1 {
			res.noteLiveHeap()
		}
	}
	res.noteAllocs(allocs, res.Attempted)
	p50 := median(plain)
	res.set("op_p50_ms", p50)
	res.set("ops_per_s", ratio(1000, p50))

	if tr != nil {
		res.set("trace.overhead_frac", ratio(median(traced), p50)-1)
		var exhibitMS []float64
		var busy float64
		share := map[string]float64{}
		for _, name := range exhibits {
			d := tr.durations("harness", name)
			exhibitMS = append(exhibitMS, d...)
			for _, x := range d {
				share[name] += x
				busy += x
			}
		}
		for _, name := range exhibits {
			res.set("harness.exhibit_frac."+name, ratio(share[name], busy))
		}
		opStats(res, exhibitMS)
		// The delivery trace runs after the sharded exhibits, on one worker.
		res.set("parallel.busy_frac", ratio(busy, workers*sum(tr.durations("bench", "pass"))))
	}
	return nil
}

// opStats reports the traced unit operations' count, median and tail.
func opStats(res *result, opsMS []float64) {
	res.set("bench.ops", float64(len(opsMS)))
	res.set("bench.op_ms.p50", median(opsMS))
	t, _ := tail(opsMS)
	res.set("bench.op_ms.tail", t)
}
