package core

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestShippedExamplePrograms runs every .s program under
// examples/programs (the uexc-run samples) on a freshly booted machine
// and again on one recycled through a MachinePool, and requires the same
// console and the same per-cause exception counts from both: the restore
// contract the sharded campaigns rely on, exercised by whole programs.
// What each program must print is pinned by the root package's golden
// test.
func TestShippedExamplePrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example programs found — glob rooted wrong?")
	}
	sort.Strings(files)
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			run := func(m *Machine) (string, [32]uint64) {
				t.Helper()
				if err := m.LoadProgram(string(src)); err != nil {
					t.Fatalf("load: %v", err)
				}
				if err := m.Run(10_000_000); err != nil {
					t.Fatalf("run: %v", err)
				}
				return m.K.Console(), m.CPU().ExcCounts
			}
			fresh, err := NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			console, counts := run(fresh)
			if console == "" {
				t.Error("program printed nothing")
			}
			pool := &MachinePool{}
			used, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			run(used)
			pool.Put(used)
			recycled, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			if recycled != used {
				t.Fatal("pool did not hand back the machine it was given")
			}
			rConsole, rCounts := run(recycled)
			if rConsole != console {
				t.Errorf("console differs on a recycled machine:\n--- fresh ---\n%s--- recycled ---\n%s",
					console, rConsole)
			}
			if rCounts != counts {
				t.Errorf("exception counts differ on a recycled machine:\nfresh    %v\nrecycled %v",
					counts, rCounts)
			}
		})
	}
}
