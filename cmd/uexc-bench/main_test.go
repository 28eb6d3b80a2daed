package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"uexc/internal/report"
)

// splitJITDiag separates a campaign's -v stderr into the per-seed
// progress stream and the trailing "jit:" diagnostics line (empty if
// absent). Progress is deterministic at every -parallel width; the
// diagnostics counters are not, so comparisons must split them apart.
func splitJITDiag(stderr string) (progress, jit string) {
	if i := strings.Index(stderr, "jit: "); i >= 0 {
		return stderr[:i], stderr[i:]
	}
	return stderr, ""
}

func testSeries() *report.Series {
	return &report.Series{
		Title:   "test series",
		XLabel:  "x",
		YLabels: []string{"a", "b"},
		X:       []float64{1, 2},
		Y:       [][]float64{{10, 20}, {30, 40}},
	}
}

// TestWriteSeriesCSVCreatesDirectory: -csv into a directory that does
// not exist yet must create it (including parents) instead of failing
// with a bare os.WriteFile error.
func TestWriteSeriesCSVCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does", "not", "exist")
	path, err := writeSeriesCSV(dir, "figure3.csv", testSeries())
	if err != nil {
		t.Fatalf("writeSeriesCSV into missing directory: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "x,a,b\n1,10,30\n2,20,40\n"
	if string(data) != want {
		t.Errorf("CSV content = %q, want %q", data, want)
	}
}

// TestCSVRejectedWithoutSeries: -csv silently did nothing when
// combined with -table/-trace/-faultcampaign (none of which produce a
// series); it must now be rejected up front with a clear error.
func TestCSVRejectedWithoutSeries(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-faultcampaign", "-seeds", "1", "-csv", dir},
		{"-table", "1", "-csv", dir},
		{"-trace", "-csv", dir},
		{"-ablations", "-csv", dir},
	} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v): no error for -csv without a figure series", args)
			continue
		}
		if !strings.Contains(err.Error(), "-csv") {
			t.Errorf("run(%v): error %q does not explain the -csv conflict", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v): produced output despite flag error", args)
		}
	}
}

// TestCSVAllowedWithFigure: the combinations that do have series keep
// working, including alongside -table, and write into a fresh
// directory end to end.
func TestCSVAllowedWithFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("boots measurement machines")
	}
	dir := filepath.Join(t.TempDir(), "fresh")
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-figure", "3", "-csv", dir, "-parallel", "2"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -figure 3 -csv: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "figure3.csv")); err != nil {
		t.Errorf("figure3.csv not written: %v", err)
	}
	if !strings.Contains(stdout.String(), "Figure 3") {
		t.Error("figure output missing from stdout")
	}
	if !strings.Contains(stderr.String(), "wrote ") {
		t.Error("csv progress note missing from stderr")
	}
}

// TestParallelFlagValidation: explicit negative widths are nonsense
// and rejected; -seeds stays validated on the campaign path.
func TestParallelFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-faultcampaign", "-parallel", "-1"}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "-parallel") {
		t.Errorf("negative -parallel not rejected: %v", err)
	}
	if err := run(context.Background(), []string{"-faultcampaign", "-seeds", "-3"}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "-seeds") {
		t.Errorf("negative -seeds not rejected: %v", err)
	}
}

// TestUnknownExhibitRejected: bad table/figure numbers stay errors
// through the run() refactor.
func TestUnknownExhibitRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-table", "7"}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "no table 7") {
		t.Errorf("table 7 not rejected: %v", err)
	}
	if err := run(context.Background(), []string{"-figure", "5"}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "no figure 5") {
		t.Errorf("figure 5 not rejected: %v", err)
	}
}

// TestDifftestSmokeViaCLI: the differential campaign through the CLI,
// sharded, must pass, print the deterministic summary, and stream
// byte-identical -v progress at every -parallel width. The trailing
// "jit:" diagnostics line is exempt from the byte-identity check:
// its counters aggregate per-machine translation-tier activity across
// pool recycling, and how runs interleave onto pooled machines (hence
// how many block guards see a bumped page generation) legitimately
// varies with worker count. It must still be present and well-formed
// at every width.
func TestDifftestSmokeViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a differential campaign")
	}
	run1 := func(workers string) (string, string, string) {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), []string{"-difftest", "-seeds", "6", "-parallel", workers, "-v"}, &stdout, &stderr); err != nil {
			t.Fatalf("difftest via CLI (-parallel %s): %v\n%s", workers, err, stdout.String())
		}
		prog, jit := splitJITDiag(stderr.String())
		if !regexp.MustCompile(`^jit: \d+ blocks compiled, \d+ block execs, \d+ guard misses, \d+ invalidations\n$`).MatchString(jit) {
			t.Errorf("-v (-parallel %s) missing or malformed jit diagnostics line:\n%s", workers, stderr.String())
		}
		return stdout.String(), prog, jit
	}
	out1, prog1, _ := run1("1")
	out4, prog4, _ := run1("4")
	if out1 != out4 {
		t.Errorf("difftest summary differs across -parallel widths:\n--- 1 ---\n%s--- 4 ---\n%s", out1, out4)
	}
	if prog1 != prog4 {
		t.Errorf("difftest -v progress differs across -parallel widths:\n--- 1 ---\n%s--- 4 ---\n%s", prog1, prog4)
	}
	if !strings.Contains(out1, "difftest: 6 seeds x 3 modes") {
		t.Errorf("summary banner missing:\n%s", out1)
	}
	if !strings.Contains(out1, "zero cross-mode divergences") {
		t.Errorf("divergence verdict missing:\n%s", out1)
	}
}

// TestDifftestFlagValidation: the two campaigns are mutually exclusive
// and -seeds stays validated on the difftest path.
func TestDifftestFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-difftest", "-faultcampaign"}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "pick one") {
		t.Errorf("-difftest -faultcampaign not rejected: %v", err)
	}
	if err := run(context.Background(), []string{"-difftest", "-seeds", "0"}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "-seeds") {
		t.Errorf("zero -seeds not rejected on difftest path: %v", err)
	}
}

// TestCampaignSmokeViaCLI: the full campaign path through the CLI,
// sharded, must pass and print the deterministic summary banner.
func TestCampaignSmokeViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fault campaign")
	}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-faultcampaign", "-seeds", "4", "-parallel", "0"}, &stdout, &stderr); err != nil {
		t.Fatalf("campaign via CLI: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "fault campaign: 4 seeds x 3 modes x 2 replays") {
		t.Errorf("summary banner missing:\n%s", stdout.String())
	}
}

// TestSeedsZeroRejectedOnCampaignPath: -seeds 0 (and negatives) must
// be a clear flag error on the fault-campaign path, not a silently
// empty or default-sized campaign; same for the difftest path.
func TestSeedsZeroRejectedOnCampaignPath(t *testing.T) {
	for _, args := range [][]string{
		{"-faultcampaign", "-seeds", "0"},
		{"-faultcampaign", "-seeds", "-7"},
		{"-difftest", "-seeds", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-seeds") {
			t.Errorf("run(%v): err = %v, want a -seeds validation error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v): produced output despite the flag error", args)
		}
	}
}

// TestCampaignCancelled: a cancelled context aborts both campaign
// paths with the context error instead of running to completion —
// the Ctrl-C path main wires up via signal.NotifyContext.
func TestCampaignCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-faultcampaign", "-seeds", "5"},
		{"-difftest", "-seeds", "5"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(ctx, args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "aborted") {
			t.Errorf("run(%v) under cancelled ctx: err = %v, want an aborted error", args, err)
		}
		if strings.Contains(stdout.String(), "fault campaign:") ||
			strings.Contains(stdout.String(), "difftest:") {
			t.Errorf("run(%v): summary printed despite cancellation", args)
		}
	}
}

// TestAblationsPrintsAllFive: -ablations prints Ablations A–E in
// harness.All's order, and the D and E tables equal their goldens.
func TestAblationsPrintsAllFive(t *testing.T) {
	if testing.Short() {
		t.Skip("boots measurement machines")
	}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-ablations"}, &stdout, &stderr); err != nil {
		t.Fatalf("-ablations: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	last := -1
	for _, title := range []string{"Ablation A:", "Ablation B:", "Ablation C:", "Ablation D:", "Ablation E:"} {
		i := strings.Index(out, title)
		if i <= last {
			t.Fatalf("%q missing or out of order in -ablations output:\n%s", title, out)
		}
		last = i
	}
	for _, name := range []string{"ablation_protchange", "ablation_vector"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, string(want)) {
			t.Errorf("-ablations output lacks the %s golden table:\n%s", name, want)
		}
	}
}
