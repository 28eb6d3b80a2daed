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

var update = flag.Bool("update", false, "rewrite the image digest golden")

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
// simulator assembles: the kernel, the user runtime prelude with each
// example program and each test reproducer, and progen seeds 0–299 in
// every mode, plain and mutated. A layout change in the assembler that
// moves one byte or one symbol of any of them fails here.
func TestImageDigestGolden(t *testing.T) {
	type source struct {
		name, text string
		origin     uint32
	}
	sources := []source{{"kernel", kernel.KernelSource(), kernel.KernelTextBase}}
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
		sources = append(sources, source{filepath.ToSlash(f), userrt.Prelude() + string(text), kernel.UserTextBase})
	}
	for seed := int64(0); seed < 300; seed++ {
		p := progen.Generate(seed)
		for _, mode := range []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware} {
			for _, mutate := range []bool{false, true} {
				name := fmt.Sprintf("progen/%d/%v/mutate=%v", seed, mode, mutate)
				sources = append(sources, source{name, userrt.Prelude() + p.Source(mode, mutate), kernel.UserTextBase})
			}
		}
	}

	var b strings.Builder
	for _, s := range sources {
		p, err := asm.Assemble(s.text, s.origin)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintf(&b, "%s %d %s\n", s.name, len(p.Chunks), imageDigest(p))
	}
	got := b.String()
	path := filepath.Join("testdata", "images.golden")
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
				t.Fatalf("image digest line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("image digest golden has %d lines, got %d", len(wl), len(gl))
	}
}
