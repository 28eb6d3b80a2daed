// Command uexc-bench regenerates the paper's evaluation: every table
// and figure of "Hardware and Software Support for Efficient Exception
// Handling" (Thekkath & Levy, ASPLOS 1994), measured on the simulated
// machine.
//
// Usage:
//
//	uexc-bench -all            # every exhibit (default)
//	uexc-bench -table 2        # one table (1..5)
//	uexc-bench -figure 3       # one figure (3 or 4)
//	uexc-bench -trace          # Figures 1 and 2 as event traces
//	uexc-bench -ablations      # the five ablation studies (A–E)
//	uexc-bench -validate       # also run object-store crossover validation
//	uexc-bench -faultcampaign -seeds 100
//	                           # deterministic fault-injection campaign:
//	                           # each seed replayed twice under all three
//	                           # delivery modes, invariants checked after
//	                           # every injected event
//	uexc-bench -difftest -seeds 200
//	                           # differential campaign: each seed expands
//	                           # to a random exception-rich program run
//	                           # under all three delivery modes, asserting
//	                           # architectural equivalence
//	uexc-bench -soak -seeds 10000 -soakdir /tmp/soak
//	                           # seed-space triage sweep: both campaigns
//	                           # with typed verdicts, checkpointed to the
//	                           # durable job store so a killed sweep
//	                           # resumes byte-identically
//	uexc-bench -parallel 4     # shard independent runs over 4 workers
//	                           # (0 = all CPUs; output is byte-identical
//	                           # to -parallel 1 at any width)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	"uexc/internal/cpu"
	dt "uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/report"
	soakpkg "uexc/internal/soak"
	"uexc/internal/sweep"
)

func main() {
	// Ctrl-C (or SIGTERM) cancels the context, which the sharded
	// campaign loops observe between runs: the process exits cleanly
	// with an "aborted" error instead of running the sweep to
	// completion. A second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "uexc-bench: %v\n", err)
		os.Exit(1)
	}
}

// writeSeriesCSV writes one figure series as CSV into dir, creating
// the directory (and parents) if needed.
func writeSeriesCSV(dir, name string, s *report.Series) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating -csv directory: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(s.CSV()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// run is the testable body of main: parses args, regenerates the
// requested exhibits to stdout, and reports progress/diagnostics on
// stderr. Cancelling ctx aborts the campaign paths between runs.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("uexc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all       = fs.Bool("all", false, "regenerate every table and figure")
		table     = fs.Int("table", 0, "regenerate one table (1..5)")
		figure    = fs.Int("figure", 0, "regenerate one figure (3 or 4)")
		trace     = fs.Bool("trace", false, "render Figures 1 and 2 as event traces")
		ablations = fs.Bool("ablations", false, "run the ablation studies")
		validate  = fs.Bool("validate", false, "validate figure curves against the object store")
		csvDir    = fs.String("csv", "", "also write figure series as CSV files into this directory")
		campaign  = fs.Bool("faultcampaign", false, "run the deterministic fault-injection campaign")
		difftest  = fs.Bool("difftest", false, "run the cross-mode differential-testing campaign")
		soak      = fs.Bool("soak", false, "run the seed-space triage sweep: both campaigns with typed verdicts, failing on any unclassified run")
		soakDir   = fs.String("soakdir", "", "durable checkpoint directory for -soak (empty: run without resume)")
		seeds     = fs.Int("seeds", 30, "number of campaign seeds")
		workers   = fs.Int("parallel", runtime.NumCPU(), "worker goroutines for sharded runs (0 = all CPUs)")
		verbose   = fs.Bool("v", false, "per-run fault-campaign progress")
		engine    = fs.String("engine", "jit", "execution tier: jit, fast, or interp")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("creating -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("creating -memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // flush unreachable allocations before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "uexc-bench: writing -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if !*all && *table == 0 && *figure == 0 && !*trace && !*ablations && !*campaign && !*difftest && !*soak {
		*all = true
	}
	if *workers < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 selects all CPUs), got %d", *workers)
	}
	// Both campaign kinds sweep seeds [0, n): a non-positive count can
	// only mean a typo, so reject it up front instead of silently
	// running an empty (or default-sized) campaign.
	if (*campaign || *difftest || *soak) && *seeds <= 0 {
		return fmt.Errorf("-seeds must be positive, got %d", *seeds)
	}
	if *soakDir != "" && !*soak {
		return fmt.Errorf("-soakdir only applies to -soak")
	}
	// -csv writes figure series; tables, traces, and campaigns have no
	// series, so a -csv that could never produce a file is an error,
	// not a silent no-op.
	if *csvDir != "" && !*all && *figure == 0 {
		return fmt.Errorf("-csv writes figure series and needs -all or -figure; " +
			"-table, -trace, and -faultcampaign produce no CSV")
	}
	if (*campaign && *difftest) || (*soak && (*campaign || *difftest)) {
		return fmt.Errorf("-faultcampaign, -difftest, and -soak are separate sweeps; pick one")
	}
	// -engine selects the execution tier every machine in this process
	// boots with. All three tiers are observationally identical (the
	// difftest cross-check in `make check` holds them to that), so this
	// only changes wall-clock — and is exactly the knob the cross-check
	// turns. The root bench_test.go compares the tiers' throughput as
	// per-engine sub-benchmarks.
	switch *engine {
	case "jit":
		cpu.DefaultEngine = cpu.EngineJIT
	case "fast":
		cpu.DefaultEngine = cpu.EngineFast
	case "interp":
		cpu.DefaultEngine = cpu.EngineInterp
	default:
		return fmt.Errorf("-engine must be jit, fast, or interp, got %q", *engine)
	}

	printT := func(t *report.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t.Render())
		return nil
	}
	writeCSV := func(name string, s *report.Series) error {
		if *csvDir == "" {
			return nil
		}
		path, err := writeSeriesCSV(*csvDir, name, s)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
		return nil
	}
	printS := func(name string, s *report.Series, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, s.Render())
		return writeCSV(name, s)
	}

	var progress io.Writer
	if *verbose {
		progress = stderr
	}
	if *campaign || *difftest {
		sw := harness.Campaign.Kind()
		if *difftest {
			sw = dt.Oracle.Kind()
		}
		res, err := sw.Resume(ctx, sweep.Options{
			Seeds: *seeds, Workers: *workers, Progress: progress,
		}, nil, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Summary())
		return res.Err()
	}

	if *soak {
		res, err := soakpkg.Run(ctx, soakpkg.Options{
			Seeds: *seeds, Workers: *workers, Dir: *soakDir,
		}, progress, stdout)
		if err != nil {
			return err
		}
		return res.Gate()
	}

	if *all {
		out, err := harness.All(*validate, *workers)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
		tr, err := harness.TraceDelivery()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, tr)
		if *csvDir != "" {
			s3, err := harness.Figure3(false, *workers)
			if err != nil {
				return err
			}
			if err := writeCSV("figure3.csv", s3); err != nil {
				return err
			}
			s4, err := harness.Figure4(false, *workers)
			if err != nil {
				return err
			}
			if err := writeCSV("figure4.csv", s4); err != nil {
				return err
			}
		}
		return nil
	}
	switch *table {
	case 0:
	case 1:
		if err := printT(harness.Table1()); err != nil {
			return err
		}
	case 2:
		if err := printT(harness.Table2()); err != nil {
			return err
		}
	case 3:
		if err := printT(harness.Table3()); err != nil {
			return err
		}
	case 4:
		if err := printT(harness.Table4()); err != nil {
			return err
		}
	case 5:
		if err := printT(harness.Table5()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("no table %d (have 1..5)", *table)
	}
	switch *figure {
	case 0:
	case 3:
		s, err := harness.Figure3(*validate, *workers)
		if err := printS("figure3.csv", s, err); err != nil {
			return err
		}
	case 4:
		s, err := harness.Figure4(*validate, *workers)
		if err := printS("figure4.csv", s, err); err != nil {
			return err
		}
	default:
		return fmt.Errorf("no figure %d (have 3, 4; 1 and 2 via -trace)", *figure)
	}
	if *trace {
		out, err := harness.TraceDelivery()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, out)
	}
	if *ablations {
		for _, ablation := range []func() (*report.Table, error){
			harness.AblationHardware, harness.AblationEager, harness.AblationSubpage,
			harness.AblationProtChange, harness.AblationVector,
		} {
			if err := printT(ablation()); err != nil {
				return err
			}
		}
	}
	return nil
}
