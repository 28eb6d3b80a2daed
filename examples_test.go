package uexc

// Smoke tests for everything under examples/: each assembly program
// must assemble against the user runtime, run to a clean exit with its
// expected console output, and behave identically on a fresh and a
// recycled machine; each Go example must build and run to completion.

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"uexc/internal/core"
)

func readFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), err
}

// consoleWant pins a recognizable fragment of each example program's
// output; programs not listed only need a clean exit.
var consoleWant = map[string]string{
	"hello.s":    "hello, world!\n",
	"fib.s":      "144\n",
	"trapdemo.s": "handled 9 traps at user level\n",
}

func runExampleSource(t *testing.T, m *core.Machine, src string) string {
	t.Helper()
	if err := m.LoadProgram(src); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.K.Console()
}

// TestExamplePrograms: every .s file under examples/programs runs to a
// clean exit with its pinned console fragment, and the console is
// byte-identical when the machine is recycled through the pool — the
// same restore contract the sharded campaigns rely on.
func TestExamplePrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("examples", "programs", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example programs found — glob rooted wrong?")
	}
	sort.Strings(files)
	pool := &core.MachinePool{}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := readFile(file)
			if err != nil {
				t.Fatal(err)
			}
			m1, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			first := runExampleSource(t, m1, data)
			pool.Put(m1)
			if want := consoleWant[filepath.Base(file)]; want != "" && !strings.Contains(first, want) {
				t.Errorf("console %q missing %q", first, want)
			}
			m2, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			second := runExampleSource(t, m2, data)
			pool.Put(m2)
			if first != second {
				t.Errorf("console differs between fresh and recycled machine:\n--- fresh ---\n%s--- recycled ---\n%s",
					first, second)
			}
		})
	}
}

// TestExampleGoMains: every Go example under examples/ runs to a zero
// exit. These boot full machines (some compare all three delivery
// modes), so they are skipped in -short mode.
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
		t.Run(filepath.Base(dir), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./"+dir).CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./%s: %v\n%s", dir, err, out)
			}
			if len(out) == 0 {
				t.Errorf("go run ./%s produced no output", dir)
			}
		})
	}
}
