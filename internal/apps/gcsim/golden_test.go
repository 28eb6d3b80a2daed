package gcsim

// Golden results: the full Result of every workload × barrier pair —
// every Stats field, the heap checksum and Seconds at full precision —
// is pinned under testdata/, each workload booking all three barriers
// in one pass. The Table 4/5 goldens in internal/harness
// render only a few rounded columns; this file catches any drift in
// promotion, reclamation, barrier cycles or the last bits of the
// virtual clock. Refresh (after reviewing the diff) with:
//
//	go test ./internal/apps/gcsim -run TestGoldenResults -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestGoldenResults(t *testing.T) {
	cfgs := configs(t)
	var b strings.Builder
	for _, wl := range workloads {
		for _, r := range wl.run(cfgs...) {
			fmt.Fprintf(&b, "%s: %+v\n", wl.name, r)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "results.golden")
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
		t.Errorf("results drifted from golden file.\n--- got ---\n%s--- want ---\n%s"+
			"(if the change is intentional, refresh with -update)", got, want)
	}
}
