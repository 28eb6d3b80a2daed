// Package uexc reproduces "Hardware and Software Support for Efficient
// Exception Handling" (Chandramohan A. Thekkath and Henry M. Levy,
// ASPLOS VI, 1994) as a complete simulated system in Go.
//
// The paper's artifact was a modified Ultrix 4.2A kernel on a 25 MHz
// MIPS R3000 DECstation 5000/200, delivering synchronous exceptions to
// user-level handlers an order of magnitude faster than the standard
// Unix signal machinery. This repository rebuilds that world:
//
//   - an R3000-like CPU interpreter with branch delay slots, precise
//     exceptions, CP0, and a software-managed TLB (internal/cpu,
//     internal/tlb, internal/mem, internal/arch);
//   - a two-pass assembler for the ISA (internal/asm);
//   - a simulated kernel whose first-level exception handlers run as
//     real simulated instructions: the paper's 65-instruction fast path
//     and an Ultrix-style signal path (internal/kernel);
//   - the user-mode runtime: trampoline, low-level fast handlers
//     (internal/userrt);
//   - the proposed hardware support as CPU features: Tera-style direct
//     user vectoring via an exception-target register, and a per-TLB-
//     entry U bit for user-level protection updates;
//   - the paper's applications: a generational GC with three write-
//     barrier implementations and a swizzling persistent store
//     (internal/apps/...), plus lazy unbounded streams, full/empty-bit
//     synchronization, futures and conditional watchpoints as assembly
//     programs that run on the machine (examples/programs);
//   - a benchmark harness regenerating every table and figure of the
//     evaluation (internal/harness, cmd/uexc-bench).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for measured-vs-paper
// results.
package uexc
