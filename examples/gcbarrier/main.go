// gcbarrier: the paper's §4.1 study as a runnable example. A
// generational garbage collector tracks old→young pointer stores with a
// page-protection write barrier; we run the same two applications the
// paper measured (simulated Lisp operators, and random replacement in a
// 1 MB array) once each, costed under three barriers, and compare.
//
//	go run ./examples/gcbarrier
package main

import (
	"fmt"
	"log"

	"uexc/internal/apps/gcsim"
	"uexc/internal/core"
	"uexc/internal/simos"
)

func main() {
	fmt.Println("measuring per-event costs on the simulated machine...")
	ultCosts, err := simos.Measure(core.ModeUltrix)
	if err != nil {
		log.Fatal(err)
	}
	fastCosts, err := simos.Measure(core.ModeFast)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  protection fault round trip: Unix signals %.1f µs, fast+eager %.1f µs\n\n",
		simos.Micros(ultCosts.ProtFaultRT), simos.Micros(fastCosts.ProtFaultRT))

	for _, wl := range []struct {
		name string
		run  func(...gcsim.Config) []gcsim.Result
	}{
		{"Lisp operations", gcsim.LispOps},
		{"Array test (1 MB, random replacement)", gcsim.ArrayTest},
	} {
		rs := wl.run(gcsim.Config{Barrier: gcsim.BarrierSigsegv, Costs: ultCosts},
			gcsim.Config{Barrier: gcsim.BarrierFastEager, Costs: fastCosts},
			gcsim.Config{Barrier: gcsim.BarrierSoftware, Costs: fastCosts})
		sig, fast, soft := rs[0], rs[1], rs[2]

		fmt.Printf("%s  (%d collections, %d barrier faults, heap checksum %#x)\n",
			wl.name, sig.Stats.Collections, sig.Stats.Faults, sig.Checksum)
		fmt.Printf("  %-42s %8.2f s CPU\n", gcsim.BarrierSigsegv, sig.Seconds)
		fmt.Printf("  %-42s %8.2f s CPU  (%.1f%% better)\n", gcsim.BarrierFastEager, fast.Seconds,
			100*(sig.Seconds-fast.Seconds)/sig.Seconds)
		fmt.Printf("  %-42s %8.2f s CPU  (%d inline checks)\n\n", gcsim.BarrierSoftware, soft.Seconds,
			soft.Stats.Checks)
	}

	fmt.Println("paper's Table 4: Lisp 24 s -> 23 s (4%), array 2 s -> 1.8 s (10%).")
	fmt.Println("the collector's answers are identical in every configuration; only the")
	fmt.Println("barrier mechanism — and therefore the exception cost — changes.")
}
