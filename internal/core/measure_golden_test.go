package core

// Golden measurements: the %+v of every exported Measure* result — N,
// the Return and Deliver means at full precision, the subpage emulation
// count, every protection-change mechanism — is pinned under testdata/.
// The exhibit goldens in internal/harness render only a few rounded
// columns; this file catches any drift in what they leave out. Refresh
// (after reviewing the diff) with:
//
//	go test ./internal/core -run TestGoldenMeasurements -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestGoldenMeasurements(t *testing.T) {
	const n = 40
	var b strings.Builder
	line := func(name string, v any, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s: error: %v\n", name, err)
			return
		}
		fmt.Fprintf(&b, "%s: %+v\n", name, v)
	}
	// raw strips Timing's String method so %+v prints every field at
	// full precision.
	type raw struct {
		N                          int
		Deliver, Return, RoundTrip float64
	}
	for _, mode := range []Mode{ModeUltrix, ModeFast, ModeHardware} {
		tm, err := MeasureSimpleException(mode, n)
		line("simple "+mode.String(), raw(tm), err)
	}
	for _, c := range []struct {
		mode  Mode
		eager bool
	}{{ModeFast, true}, {ModeFast, false}, {ModeUltrix, false}, {ModeHardware, true}} {
		tm, err := MeasureWriteProt(c.mode, c.eager, n)
		line(fmt.Sprintf("writeprot %v eager=%v", c.mode, c.eager), raw(tm), err)
	}
	sp, err := MeasureSubpage(n)
	line("subpage", struct {
		Delivered raw
		EmulRT    float64
		EmulN     int
	}{raw(sp.Delivered), sp.EmulRT, sp.EmulN}, err)
	un, err := MeasureUnalignedMin(n)
	line("unaligned-min", raw(un), err)
	sys, err := MeasureNullSyscall(n)
	line("null-syscall", sys, err)
	pc, err := MeasureKernelPhases()
	line("kernel-phases", pc, err)
	for _, mech := range []ProtMech{ProtMechHardware, ProtMechEmulated, ProtMechSyscall} {
		cyc, err := MeasureProtChange(mech, n)
		line("protchange "+mech.String(), cyc, err)
	}
	vec, err := MeasureVectoredDispatch(n)
	line("vectored", raw(vec), err)
	pts, err := MeasureSensitivity([]float64{0.7, 1.0, 1.3}, n)
	line("sensitivity", pts, err)
	got := b.String()

	path := filepath.Join("testdata", "measure.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("measurements drifted from golden file.\n--- got ---\n%s--- want ---\n%s"+
			"(if the change is intentional, refresh with -update)", got, want)
	}
}
