// Command bench is uexc's layered performance benchmark. It runs one of
// four workloads — the paper's exhibits, a fault-injection campaign, a
// differential-testing sweep, and an in-process job server under load —
// measuring the program from outside through the public functions of
// each layer, checking every output, and printing each metric as
// `name value unit` followed by one JSON summary line.
//
// Run it from the root of a uexc checkout:
//
//	bash bench/run.sh -workload campaign -seed 1 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 the per-layer ones
// (and -spans FILE writes the recorded spans). -workload all runs every
// workload in its own child process; -runs N measures run-to-run spread.
// README.md documents every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads lists the benchmark's workloads in their default order.
var workloads = []string{"paper", "campaign", "difftest", "serve"}

// config holds one run's settings. The sizing fields are fixed for real
// runs (defaultConfig); tests shrink them.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	spansFile string

	minRounds     int     // measured rounds (passes, batches) at least
	campaignBatch int     // campaign seeds per batch
	difftestBatch int     // difftest seeds per batch
	serveWarmup   float64 // closed-loop warm-up seconds, not measured
	jobSeeds      int     // seeds per campaign/difftest job in the serve mix
	checkSample   int     // program-run outputs re-run locally
	probeSeeds    int     // progen seeds in the traced layer probe
	setupProbes   int     // fresh child processes timing set-up; 0 = in process
}

func defaultConfig() config {
	return config{
		seconds:       10,
		minRounds:     5,
		campaignBatch: 300,
		difftestBatch: 50,
		serveWarmup:   1.5,
		jobSeeds:      4,
		checkSample:   100,
		probeSeeds:    50,
		setupProbes:   7,
	}
}

// workers is the fixed sizing every run uses: GOMAXPROCS, campaign and
// difftest shard workers, and server workers.
const workers = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's account: the summary line plus the problems that
// made it incorrect.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	units    map[string]string
	layered  bool // per-layer mode: layers a workload never calls read 0
}

func newResult(trace bool) *result {
	r := &result{Metrics: map[string]metric{}, units: map[string]string{}, layered: trace}
	ds := endToEnd
	if trace {
		ds = perLayer
	}
	for _, d := range ds {
		r.units[d.name] = d.unit
	}
	return r
}

// set records a declared metric; metrics the run's mode does not
// declare are dropped, so workload code can set both kinds freely.
func (r *result) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not a finite number", name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// atHostSpeed rescales the end-to-end host-time metrics from the
// measured host speed to the reference speed (hostspeed.go), printing
// the raw values.
func (r *result) atHostSpeed(speed float64, samples int) {
	fmt.Printf("host: speed %.4f of reference over %d samples; raw", speed, samples)
	for _, name := range []string{"ops_per_s", "op_p50_ms", "setup_s"} {
		m := r.Metrics[name]
		fmt.Printf(" %s %v", name, m.Value)
		if name == "ops_per_s" {
			m.Value /= speed
		} else {
			m.Value *= speed
		}
		r.Metrics[name] = m
	}
	fmt.Println()
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// finish settles Correct. In per-layer mode a metric of a layer the
// workload never calls reads 0; an end-to-end metric must be measured.
func (r *result) finish() {
	for name, unit := range r.units {
		if _, ok := r.Metrics[name]; ok {
			continue
		}
		if !r.layered {
			r.fail("end-to-end metric %s was not measured", name)
		}
		r.Metrics[name] = metric{Value: 0, Unit: unit}
	}
	if r.Attempted < 1 {
		r.fail("no operations attempted")
	}
	r.Correct = len(r.problems) == 0 && r.Failed == 0
}

func main() {
	runtime.GOMAXPROCS(workers)
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "all", "paper, campaign, difftest, serve, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.spansFile, "spans", "", "with -trace 1, write the spans as JSON to this file")
	runs := flag.Int("runs", 0, "measure spread: run every workload N times in fresh processes")
	setupOnly := flag.Bool("setup-probe", false, "internal: time one cold set-up of -workload and exit")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 || cfg.seed < 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1, -seconds positive, -seed non-negative")
		os.Exit(2)
	}

	switch {
	case *setupOnly:
		d, err := setupOnce(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: set-up:", err)
			os.Exit(1)
		}
		fmt.Println(d.Seconds())
	case *runs > 0:
		os.Exit(spread(cfg, *runs))
	case cfg.workload == "all":
		os.Exit(runAll(cfg))
	default:
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// runWorkload performs one run and prints its metrics and summary line.
func runWorkload(cfg config) (*result, error) {
	run, ok := map[string]func(config, *result, *tracer, *hostClock) error{
		"paper": runPaper, "campaign": runCampaign, "difftest": runDifftest, "serve": runServe,
	}[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s, all)", cfg.workload, strings.Join(workloads, ", "))
	}
	res := newResult(cfg.trace)
	host := &hostClock{}
	host.sample()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload)
	} else {
		setup, err := measureSetup(cfg)
		if err != nil {
			return nil, err
		}
		res.set("setup_s", setup)
	}
	if err := run(cfg, res, tr, host); err != nil {
		return nil, err
	}
	host.sample()
	res.set("bench.host_speed", host.speed())
	if !cfg.trace {
		res.atHostSpeed(host.speed(), len(host.samples))
	}
	if err := measureGuest(res); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := probeLayers(cfg, res, tr); err != nil {
			return nil, err
		}
		res.set("trace.spans", float64(tr.count()))
		tr.printSelfTime(os.Stdout)
		if cfg.spansFile != "" {
			if err := tr.writeFile(cfg.spansFile); err != nil {
				return nil, err
			}
		}
	}
	res.finish()
	printResult(res)
	return res, nil
}

// printResult writes the `name value unit` lines, any failed checks,
// and the JSON summary as the last line of standard output.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%s %v %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("ops_attempted %d count\nops_failed %d count\n", res.Attempted, res.Failed)
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, _ := json.Marshal(res) // plain numbers and strings: cannot fail
	fmt.Println(string(line))
}

// measureSetup times the workload's cold set-up in cfg.setupProbes fresh
// child processes (so process-wide caches start empty every time) and
// returns the median in seconds. With no probes it times one set-up in
// this process.
func measureSetup(cfg config) (float64, error) {
	if cfg.setupProbes == 0 {
		d, err := setupOnce(cfg)
		return d.Seconds(), err
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < cfg.setupProbes; i++ {
		out, err := exec.Command(self, "-setup-probe", "-workload", cfg.workload,
			"-seed", strconv.FormatInt(cfg.seed, 10)).Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(lastLine(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe output: %w", err)
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

// setupOnce performs the workload's set-up once and times it.
func setupOnce(cfg config) (time.Duration, error) {
	start := time.Now()
	var err error
	switch cfg.workload {
	case "paper":
		_, err = paperPass()
	case "campaign":
		_, err = warmup(campaignSweep(cfg))
	case "difftest":
		_, err = warmup(difftestSweep(cfg))
	case "serve":
		var ts *testServer
		if ts, err = startServer(); err == nil {
			d := time.Since(start)
			ts.close()
			return d, nil
		}
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return time.Since(start), err
}

// noteLiveHeap records, in a traced run, the live heap after a full
// collection. Workloads call it once, after a fixed amount of work
// (their first minRounds rounds, or the serve open loop), because the
// total work of a run grows with host speed and core's assembled-program
// cache with it.
func (r *result) noteLiveHeap() {
	if !r.layered {
		return
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("bench.live_heap_mb", float64(m.HeapAlloc)/(1<<20))
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// noteAllocs records the heap allocated per operation since a
// totalAlloc reading taken at the start of the measured rounds.
func (r *result) noteAllocs(since uint64, ops int) {
	r.set("alloc_kb_per_op", ratio(float64(totalAlloc()-since)/1024, float64(ops)))
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
