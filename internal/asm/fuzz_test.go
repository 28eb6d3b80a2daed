package asm_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"uexc/internal/asm"
	"uexc/internal/kernel"
	"uexc/internal/userrt"
)

// FuzzAssemble feeds arbitrary source text to the assembler: it must
// never panic, and every rejection must be a typed *Error carrying a
// plausible source line — the diagnostic contract the kernel build and
// the test harness rely on. Every success must hold the layout
// invariants (checkLayout). And assembling the shared parsed prelude
// followed by the parsed text must give exactly the program, or exactly
// the error, of assembling the concatenated source. And the parse
// must be the miss path's (checkMemoInvisible). Seed corpus under
// testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Add("")
	f.Add("nop\n")
	f.Add("main:\n\taddiu sp, sp, -8\n\tjal f\n\tnop\nf:\tjr ra\n\tnop\n")
	f.Add(".org 0x80000000\n\tmfc0 k0, C0_CAUSE\n\trfe\n")
	f.Add(".data\nw:\t.word 1, 2, 3\ns:\t.asciiz \"hi\\n\"\n")
	f.Add("\t.align 4\n\t.space 128\n")
	f.Add("bad instruction here\n")
	f.Add("\t.word 0x\n")
	f.Add("loop:\tb loop\n")
	f.Fuzz(func(t *testing.T, src string) {
		checkMemoInvisible(t, src)
		checkSharedPrelude(t, src)
		p, listing, err := asm.AssembleWithListing(src, 0x00400000)
		if err == nil {
			checkLayout(t, p, listing)
			return
		}
		var ae *asm.Error
		if !errors.As(err, &ae) {
			t.Fatalf("Assemble error is not *asm.Error: %T %v", err, err)
		}
		if ae.Line < 1 {
			t.Fatalf("diagnostic with bad line %d: %v", ae.Line, ae)
		}
	})
}

// memoWarmer is an unrelated text parsed before each fuzz input, so
// the line memo is warm with lines the input may share.
const memoWarmer = "main:\n\taddiu sp, sp, -8\n\tnop\n\tli t0, 0x1234\n\tbad instruction here\n\tlw t1, 4(sp)\n"

// checkMemoInvisible asserts that Parse, with the line memo warmed by
// an unrelated text, gives exactly the Text of parsing every line
// straight through the miss path. src is parsed three times: a line is
// memoised on its second miss, so the later parses splice its lines
// from the memo.
func checkMemoInvisible(t *testing.T, src string) {
	t.Helper()
	asm.Parse(memoWarmer)
	want := asm.ParseUnmemoised(src)
	for i := 0; i < 3; i++ {
		if got := asm.Parse(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("memoised parse %d differs from the miss path:\n got  %+v\n want %+v", i+1, got, want)
		}
	}
}

// checkSharedPrelude asserts that the two-text assembly of the parsed
// prelude and src is the one-text assembly of their concatenation.
func checkSharedPrelude(t *testing.T, src string) {
	t.Helper()
	got, gotErr := asm.AssembleTexts(kernel.UserTextBase, userrt.Parsed(), asm.Parse(src))
	want, wantErr := asm.Assemble(userrt.Prelude()+src, kernel.UserTextBase)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("parsed prelude + text: error %v, concatenated source: %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed prelude + text assembles a different program than the concatenated source")
	}
}

// checkLayout asserts the image layout invariants: chunks are
// non-empty, ascend, and neither overlap nor abut (abutting regions are
// one chunk), and every statement that emits bytes lies inside one
// chunk.
func checkLayout(t *testing.T, p *asm.Program, listing []asm.ListEntry) {
	t.Helper()
	end := func(c asm.Chunk) uint64 { return uint64(c.Addr) + uint64(len(c.Data)) }
	for i, c := range p.Chunks {
		if len(c.Data) == 0 {
			t.Fatalf("chunk %d at %#x is empty", i, c.Addr)
		}
		if i > 0 && uint64(c.Addr) <= end(p.Chunks[i-1]) {
			t.Fatalf("chunk %d at %#x overlaps or abuts chunk %d ending at %#x", i, c.Addr, i-1, end(p.Chunks[i-1]))
		}
	}
	for _, e := range listing {
		if e.Size == 0 {
			continue
		}
		inside := false
		for _, c := range p.Chunks {
			if e.Addr >= c.Addr && uint64(e.Addr)+uint64(e.Size) <= end(c) {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("line %d (%s) at %#x+%d lies in no one chunk", e.Line, e.Text, e.Addr, e.Size)
		}
	}
}

// TestAssemblerNeverPanics: arbitrary garbage must produce an error or
// a program, never a panic.
func TestAssemblerNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pieces := []string{
		"addu", "lw", "sw", "beq", ".word", ".org", ".equ", ".asciiz",
		"t0", "zero", "sp", ",", "(", ")", ":", "0x", "123", "-", "+",
		"<<", "label", "\"str", "'", "\n", "\t", " ", "#c", "%", "$",
		".align", ".space", "li", "la", "nop", "jr", "mfc0", "c0_epc",
	}
	for trial := 0; trial < 3000; trial++ {
		var b strings.Builder
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			if rng.Intn(3) == 0 {
				b.WriteByte(' ')
			}
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = asm.Assemble(src, 0x1000)
		}()
	}
}

// TestAssemblerRandomBytes: raw random byte soup likewise.
func TestAssemblerRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 1000; trial++ {
		buf := make([]byte, rng.Intn(200))
		for i := range buf {
			buf[i] = byte(rng.Intn(128))
		}
		src := string(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = asm.Assemble(src, 0)
		}()
	}
}
