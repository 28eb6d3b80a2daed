// Command uexc-run boots the simulated kernel, loads a user program
// (assembled against the user runtime; the program must define "main"),
// runs it to completion, and reports console output and statistics.
//
// Usage:
//
//	uexc-run [-hw mask] [-max n] [-stats] prog.s
//
// -hw enables the proposed Tera-style hardware delivery for the given
// exception-code bitmask (e.g. -hw 0x200 claims breakpoints).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"uexc/internal/arch"
	"uexc/internal/core"
)

func main() {
	var (
		hw    = flag.String("hw", "", "hardware-delivery exception mask (e.g. 0x200)")
		max   = flag.Uint64("max", 200_000_000, "instruction budget")
		stats = flag.Bool("stats", true, "print machine statistics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: uexc-run [-hw mask] [-max n] [-stats] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "uexc-run: %v\n", err)
		os.Exit(1)
	}

	m, err := core.NewMachine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "uexc-run: %v\n", err)
		os.Exit(1)
	}
	if err := m.LoadProgram(string(src)); err != nil {
		fmt.Fprintf(os.Stderr, "uexc-run: %v\n", err)
		os.Exit(1)
	}
	if *hw != "" {
		mask, err := strconv.ParseUint(*hw, 0, 32)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uexc-run: bad -hw: %v\n", err)
			os.Exit(2)
		}
		m.EnableHardwareDelivery(uint32(mask))
	}

	runErr := m.Run(*max)
	fmt.Print(m.K.Console())
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "uexc-run: %v\n", runErr)
	}

	if *stats {
		c := m.Counters()
		fmt.Fprintf(os.Stderr, "\n--- machine statistics ---\n")
		fmt.Fprintf(os.Stderr, "instructions: %d\n", c.Insts)
		fmt.Fprintf(os.Stderr, "cycles:       %d (%.2f ms simulated at 25 MHz)\n",
			c.Cycles, core.Micros(c.Cycles)/1000)
		fmt.Fprintf(os.Stderr, "tlb:          %d hits, %d misses\n", c.TLBHits, c.TLBMisses)
		for code, n := range c.ExcCounts {
			if n > 0 {
				fmt.Fprintf(os.Stderr, "exceptions:   %-5s %d\n", arch.ExcName(uint32(code)), n)
			}
		}
		fmt.Fprintf(os.Stderr, "kernel:       %d syscalls, %d page faults, %d unix signals, %d fast prot deliveries, %d subpage emulations\n",
			c.Syscalls, c.PageFaults, c.UnixDeliveries, c.ProtFaultsToUser, c.SubpageEmuls)
	}
	if runErr != nil {
		os.Exit(1)
	}
}
