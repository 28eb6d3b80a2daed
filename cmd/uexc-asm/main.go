// Command uexc-asm assembles a source file for the simulated machine
// and prints a listing, the symbol table, or a flat disassembly.
//
// Usage:
//
//	uexc-asm [-org 0x80000000] [-syms] [-dis] file.s
//
// The default origin is kseg0 (kernel images); user programs typically
// pass -org 0x400000.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"uexc/internal/arch"
	"uexc/internal/asm"
	"uexc/internal/kernel"
	"uexc/internal/userrt"
)

func main() {
	var (
		orgFlag = flag.String("org", "0x80000000", "initial location counter")
		syms    = flag.Bool("syms", false, "print the symbol table")
		dis     = flag.Bool("dis", true, "print a disassembly listing")
		listing = flag.Bool("listing", false, "print the per-statement source listing")
		withRT  = flag.Bool("userrt", false, "prepend the user runtime (for uexc-run programs) and assemble at the user text base")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: uexc-asm [-org addr] [-syms] [-dis] file.s")
		os.Exit(2)
	}

	org, err := strconv.ParseUint(*orgFlag, 0, 32)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uexc-asm: bad -org: %v\n", err)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "uexc-asm: %v\n", err)
		os.Exit(1)
	}
	texts := []*asm.Text{asm.Parse(string(src))}
	if *withRT {
		texts = []*asm.Text{userrt.Parsed(), texts[0]}
		org = kernel.UserTextBase
	}
	p, list, err := asm.AssembleTextsWithListing(uint32(org), texts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uexc-asm: %v\n", err)
		os.Exit(1)
	}

	lo, end := p.Extent()
	fmt.Printf("image: %#x..%#x (%d bytes, %d chunks)\n", lo, end, end-lo, len(p.Chunks))

	if *listing {
		for _, e := range list {
			fmt.Printf("%5d  %08x  %4d  %s\n", e.Line, e.Addr, e.Size, e.Text)
		}
	}

	if *syms {
		names := make([]string, 0, len(p.Symbols))
		for n := range p.Symbols {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return p.Symbols[names[i]] < p.Symbols[names[j]] })
		for _, n := range names {
			fmt.Printf("%08x  %s\n", p.Symbols[n], n)
		}
	}
	if *dis {
		for _, ch := range p.Chunks {
			for off := 0; off+4 <= len(ch.Data); off += 4 {
				addr := ch.Addr + uint32(off)
				w := uint32(ch.Data[off]) | uint32(ch.Data[off+1])<<8 |
					uint32(ch.Data[off+2])<<16 | uint32(ch.Data[off+3])<<24
				fmt.Printf("%08x:  %08x  %s\n", addr, w, arch.DisassembleWord(w, addr))
			}
		}
	}
}
