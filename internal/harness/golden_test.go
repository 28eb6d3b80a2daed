package harness

// Golden-file tests: every table, figure series and ablation the
// harness can render, and the delivery trace, is pinned byte-for-byte
// under testdata/. The simulator is fully deterministic, so any diff is
// a real change to measured behavior — review it, then refresh with:
//
//	go test ./internal/harness -run TestGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"uexc/internal/report"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
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
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s--- want ---\n%s"+
			"(if the change is intentional, refresh with -update)", name, got, want)
	}
}

func TestGoldenExhibits(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every table")
	}
	table := func(f func() (*report.Table, error)) func() (string, error) {
		return func() (string, error) { return render(f()) }
	}
	cases := []struct {
		name string
		fn   func() (string, error)
	}{
		{"table1", table(Table1)},
		{"table2", table(Table2)},
		{"table3", table(Table3)},
		{"table4", table(Table4)},
		{"table5", table(Table5)},
		{"figure3", func() (string, error) { return renderS(Figure3(false, 1)) }},
		{"figure4", func() (string, error) { return renderS(Figure4(false, 1)) }},
		{"trace", TraceDelivery},
		{"ablation_hardware", table(AblationHardware)},
		{"ablation_eager", table(AblationEager)},
		{"ablation_subpage", table(AblationSubpage)},
		{"ablation_protchange", table(AblationProtChange)},
		{"ablation_vector", table(AblationVector)},
		{"sensitivity", table(Sensitivity)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			out, err := c.fn()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			checkGolden(t, c.name, out)
		})
	}
}
