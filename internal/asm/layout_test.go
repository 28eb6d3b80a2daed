package asm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestLayoutChunks pins the image layout rule on explicit chunks:
// statements whose ranges touch or overlap share one chunk, chunks
// ascend by address, zero-size statements emit nothing, and where
// statements overlap the later one in source order wins — a fill
// included, which must clear bytes an earlier statement wrote.
func TestLayoutChunks(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []Chunk
	}{
		{"org back: later word then later space win", `
			.org 0x1000
			.word 0x11111111, 0x22222222, 0x33333333
			.org 0x1004
			.word 0xAABBCCDD
			.org 0x1002
			.space 4
		`, []Chunk{{0x1000, []byte{0x11, 0x11, 0, 0, 0, 0, 0xBB, 0xAA, 0x33, 0x33, 0x33, 0x33}}}},
		{"org back: space clears an earlier byte", `
			.org 0x1000
			.byte 1, 2, 3, 4
			.org 0x1001
			.space 2
		`, []Chunk{{0x1000, []byte{1, 0, 0, 4}}}},
		{"zero-size space and align emit nothing", `
			.org 0x1000
			.word 1
			.space 0
			.align 4
			.word 2
			.org 0x3000
			.space 0
			.align 8
		`, []Chunk{{0x1000, []byte{1, 0, 0, 0, 2, 0, 0, 0}}}},
		{"abutting regions are one chunk", `
			.org 0x2000
			.half 0x0302
			.org 0x1ffe
			.half 0x0100
			.org 0x2002
			.byte 4
		`, []Chunk{{0x1ffe, []byte{0, 1, 2, 3, 4}}}},
		{"out-of-order regions ascend", `
			.org 0x3000
			.word 3
			.org 0x1000
			.asciiz "a"
			.org 0x2000
			.byte 2
		`, []Chunk{{0x1000, []byte{'a', 0}}, {0x2000, []byte{2}}, {0x3000, []byte{3, 0, 0, 0}}}},
		{"a statement may end exactly at the top of the address space", `
			.org 0xfffffffc
			.word 0x04030201
		`, []Chunk{{0xfffffffc, []byte{1, 2, 3, 4}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := mustAssemble(t, c.src, 0)
			if len(p.Chunks) != len(c.want) {
				t.Fatalf("chunks = %v, want %v", p.Chunks, c.want)
			}
			for i, w := range c.want {
				if g := p.Chunks[i]; g.Addr != w.Addr || !bytes.Equal(g.Data, w.Data) {
					t.Errorf("chunk %d = {%#x % x}, want {%#x % x}", i, g.Addr, g.Data, w.Addr, w.Data)
				}
			}
		})
	}
}

// TestLayoutWrapIsAnError: a statement that runs past 0xFFFFFFFF has no
// image address for its tail, so it is diagnosed on its own line.
func TestLayoutWrapIsAnError(t *testing.T) {
	for _, src := range []string{
		".org 0xfffffffc\n.word 1, 2\n",
		".org 0xfffffff0\n.space 0x20\n",
		".org 0xffffffff\n.asciiz \"x\"\n",
		".org 0xfffffffc\nli t0, 1\n",
	} {
		_, err := Assemble(src, 0)
		var ae *Error
		if !errors.As(err, &ae) || ae.Line != 2 {
			t.Errorf("%q: err = %v, want an *asm.Error on line 2", src, err)
		}
	}
}

// TestAssembleAllocsIndependentOfSpace gates the layout's cost: a
// reservation is one window into its chunk, so the assembler's
// allocation count does not grow with the size of a .space.
func TestAssembleAllocsIndependentOfSpace(t *testing.T) {
	allocs := func(n int) float64 {
		src := fmt.Sprintf(".org 0x1000\n.word 1\n.space %#x\n.word 2\n", n)
		return testing.AllocsPerRun(5, func() { mustAssemble(t, src, 0) })
	}
	small := allocs(0x10)
	for _, n := range []int{0x1000, 0x80000} {
		if got := allocs(n); got > small {
			t.Errorf(".space %#x: %.0f allocs, want at most the %.0f of .space 0x10", n, got, small)
		}
	}
}
