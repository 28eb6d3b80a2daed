package asm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"uexc/internal/asm"
	"uexc/internal/core"
	"uexc/internal/kernel"
	"uexc/internal/progen"
	"uexc/internal/userrt"
)

var update = flag.Bool("update", false, "rewrite the image and error goldens")

// imageDigest hashes everything an assembled image hands its loaders:
// each chunk's address, length and bytes, in order, and every symbol
// with its value, in name order.
func imageDigest(p *asm.Program) string {
	h := sha256.New()
	var w [8]byte
	for _, c := range p.Chunks {
		binary.LittleEndian.PutUint32(w[:4], c.Addr)
		binary.LittleEndian.PutUint32(w[4:], uint32(len(c.Data)))
		h.Write(w[:])
		h.Write(c.Data)
	}
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		binary.LittleEndian.PutUint32(w[:4], p.Symbols[name])
		h.Write([]byte(name))
		h.Write(w[:4])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestImageDigestGolden pins the exact image of every real source the
// simulator assembles: the kernel, and — through userrt.Assemble, the
// call the machine's program loader makes — each example program, each
// test reproducer, and progen seeds 0–299 in every mode, plain and
// mutated, behind the user runtime prelude. A layout change in the
// assembler that moves one byte or one symbol of any of them fails
// here. The images are built twice, first with the line memo empty and
// then with it warm, and both must match.
func TestImageDigestGolden(t *testing.T) {
	asm.ResetLineMemo()
	for _, memo := range []string{"cold", "warm"} {
		t.Run(memo, func(t *testing.T) { checkGolden(t, "images.golden", imageDigests(t)) })
	}
}

// imageDigests assembles every source TestImageDigestGolden pins and
// returns the golden text.
func imageDigests(t *testing.T) string {
	var b strings.Builder
	record := func(name string, p *asm.Program, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s %d %s\n", name, len(p.Chunks), imageDigest(p))
	}
	p, err := asm.Assemble(kernel.KernelSource(), kernel.KernelTextBase)
	record("kernel", p, err)
	var files []string
	for _, glob := range []string{"../../examples/programs/*.s", "../*/testdata/*.s"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 10 {
		t.Fatalf("found %d program files, want at least 10 — glob rooted wrong?", len(files))
	}
	sort.Strings(files)
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := userrt.Assemble(string(text))
		record(filepath.ToSlash(f), p, err)
	}
	for seed := int64(0); seed < 300; seed++ {
		prog := progen.Generate(seed)
		for _, mode := range []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware} {
			for _, mutate := range []bool{false, true} {
				p, err := userrt.Assemble(prog.Source(mode, mutate))
				record(fmt.Sprintf("progen/%d/%v/mutate=%v", seed, mode, mutate), p, err)
			}
		}
	}
	return b.String()
}

// checkGolden compares got with testdata/name line by line; -update
// rewrites the file instead.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s has %d lines, got %d", name, len(wl), len(gl))
	}
}

// TestUserImageAllocs gates the cost of assembling one progen image
// the way the program loader does: the prelude's text pass is shared,
// so the user text's pass and the assembly step allocate a fixed
// handful of slices, the symbol table and the image, independent of
// the number of statements and operands.
func TestUserImageAllocs(t *testing.T) {
	const maxAllocs = 100
	src := progen.Generate(7).Source(core.ModeFast, true)
	if _, err := userrt.Assemble(src); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := userrt.Assemble(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("userrt.Assemble of a progen image: %.0f allocs, want at most %d", allocs, maxAllocs)
	}
}
