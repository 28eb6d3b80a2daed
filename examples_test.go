package uexc

// Golden tests for everything under examples/: each assembly program
// must assemble against the user runtime, run to a clean exit, and
// print exactly its golden output — the console, then one line per
// exception cause the CPU took — and each configuration line an app
// program prints must carry the values its Go reference gives; each Go
// example must run to a zero exit and print exactly its golden stdout.
// That a recycled machine prints the same is checked in internal/core.
// The simulator is deterministic, so any diff is a real change in
// behaviour — review it, then refresh with:
//
//	go test . -run 'TestExample' -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"uexc/internal/arch"
	"uexc/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/<name>.golden, or rewrites
// that file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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

// runExampleSource runs src to a clean exit on m and returns its
// console followed by an "exceptions: <name> <count>" line for every
// cause the CPU took, named as uexc-run -stats names them.
func runExampleSource(t *testing.T, m *core.Machine, src string) string {
	t.Helper()
	if err := m.LoadProgram(src); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	var b strings.Builder
	b.WriteString(m.K.Console())
	for code, n := range m.CPU().ExcCounts {
		if n > 0 {
			fmt.Fprintf(&b, "exceptions: %s %d\n", arch.ExcName(uint32(code)), n)
		}
	}
	return b.String()
}

// configLine is one configuration line an app program prints: the
// line that starts with prefix must carry each field in want.
type configLine struct {
	name   string // subtest name
	prefix string
	want   map[string]string
}

// fibSum is the sum of the first n Fibonacci numbers (1, 1, 2, ...)
// with 32-bit wraparound, as the guest computes it.
func fibSum(n int) uint32 {
	a, b := uint32(1), uint32(1)
	var sum uint32
	for i := 0; i < n; i++ {
		sum += a
		a, b = b, a+b
	}
	return sum
}

func streamLine(n int) configLine {
	sum := fmt.Sprint(fibSum(n))
	// The head is evaluated statically, so one materialization fault per
	// further element; the second traversal takes none.
	return configLine{fmt.Sprintf("n_%d", n), fmt.Sprintf("stream n=%d", n),
		map[string]string{"sum": sum, "second": sum, "faults": fmt.Sprint(n - 1)}}
}

func fullemptyLine(n int) configLine {
	// Round i produces 10*i; every consume empties the cell, so every
	// read faults exactly once.
	return configLine{fmt.Sprintf("n_%d", n), fmt.Sprintf("fullempty n=%d", n),
		map[string]string{"sum": fmt.Sprint(10 * n * (n + 1) / 2), "faults": fmt.Sprint(n)}}
}

func futureLine(n, touches int) configLine {
	// One fault per future however often it is touched.
	return configLine{fmt.Sprintf("n_%d_touches_%d", n, touches),
		fmt.Sprintf("future n=%d touches=%d", n, touches),
		map[string]string{"sum": fmt.Sprint(fibSum(n) * uint32(touches)),
			"faults": fmt.Sprint(n), "resolved": fmt.Sprint(n)}}
}

func watchpointLine(n, threshold int) configLine {
	// The program stores 3, 6, ..., 3n; the watchpoint stays armed, so
	// every store is seen, and the condition is new > threshold.
	matches := 0
	for v := 3; v <= 3*n; v += 3 {
		if v > threshold {
			matches++
		}
	}
	return configLine{fmt.Sprintf("n_%d_threshold_%d", n, threshold),
		fmt.Sprintf("watchpoint n=%d threshold=%d", n, threshold),
		map[string]string{"hits": fmt.Sprint(n), "matches": fmt.Sprint(matches),
			"last": fmt.Sprintf("%d->%d", 3*(n-1), 3*n), "final": fmt.Sprint(3 * n)}}
}

// appConfigs lists, per app program, the configuration lines it prints.
var appConfigs = map[string][]configLine{
	"stream.s":     {streamLine(1), streamLine(30), streamLine(500)},
	"fullempty.s":  {fullemptyLine(1), fullemptyLine(25), fullemptyLine(1000)},
	"future.s":     {futureLine(10, 5), futureLine(1, 100)},
	"watchpoint.s": {watchpointLine(20, 0), watchpointLine(10, 15), watchpointLine(100, 0)},
}

// checkConfigLine finds c's line in out and checks its fields.
func checkConfigLine(t *testing.T, out string, c configLine) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, c.prefix+" ") {
			continue
		}
		got := map[string]string{}
		for _, f := range strings.Fields(strings.TrimPrefix(line, c.prefix)) {
			if k, v, ok := strings.Cut(f, "="); ok {
				got[k] = v
			}
		}
		for k, v := range c.want {
			if got[k] != v {
				t.Errorf("%s: %s = %q, want %q", c.prefix, k, got[k], v)
			}
		}
		return
	}
	t.Errorf("no line starting %q in output:\n%s", c.prefix, out)
}

// TestExamplePrograms: every .s file under examples/programs prints
// exactly its golden output, and every configuration line of an app
// program carries the values computed here from its Go reference.
func TestExamplePrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("examples", "programs", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example programs found — glob rooted wrong?")
	}
	sort.Strings(files)
	for _, file := range files {
		name := filepath.Base(file)
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			out := runExampleSource(t, m, string(data))
			checkGolden(t, filepath.Join("programs", strings.TrimSuffix(name, ".s")), out)
			for _, c := range appConfigs[name] {
				t.Run(c.name, func(t *testing.T) { checkConfigLine(t, out, c) })
			}
		})
	}
}

// TestExampleGoMains: every Go example under examples/ runs to a zero
// exit and prints exactly its golden stdout. These boot full machines
// (some compare all three delivery modes), so they are skipped in
// -short mode.
func TestExampleGoMains(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Go example end to end")
	}
	dirs, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no Go examples found")
	}
	sort.Strings(dirs)
	for _, main := range dirs {
		dir := filepath.Dir(main)
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./"+dir)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./%s: %v\n%s", dir, err, stderr.Bytes())
			}
			checkGolden(t, filepath.Join("examples", name), string(out))
		})
	}
}
