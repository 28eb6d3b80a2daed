package asm_test

import (
	"fmt"
	"strings"
	"testing"

	"uexc/internal/asm"
	"uexc/internal/core"
	"uexc/internal/progen"
	"uexc/internal/userrt"
)

// multiErrorSources each hold more than one error. Every pass-1 error
// (labels, symbols, directive operands, sizes) beats every pass-2 error
// (operands, values, ranges); within a pass, the first line wins, and
// within a statement, the first operand.
var multiErrorSources = []string{
	"lw t0, 8[sp]\nnop\nbogus t0\n",
	"addu q9, a0, a1\nx: nop\nx: nop\n",
	".word undefinedsym\n.equ 9bad, 1\n",
	"beq a0, a1, far\n.align 3\n",
	"sll t0, t1, 32\n.org nowhere\n",
	"j 0x90000000\n.space 0x200000\n",
	"mfc0 t0, c0_bogus\nsll t0, t1, 32\n",
	".word 1/0, 0x\n",
	".word undefinedsym + 0x\n",
	".word 0x + undefinedsym\n",
	".word 1, (2\n",
	".half 0x10000, undefinedsym\n",
	".byte 256, 0x\n",
	"lw t0, undefinedsym(q9)\n",
	"lw t0, 0x(sp)\n",
	"lw t0, 4(sp\n",
	"li q9, undefinedsym\n",
	"beq q9, a1, undefinedsym\n",
	"addiu t0, t1, 0x10000 + undefinedsym\n",
	"addiu t0, q9\nx:\nx:\n",
	".equ a, b\n.equ b, 1\n",
	".org 0xfffffffc\n.word 1, 2\nbogus\n",
	"x: y: z: 9w: nop\n",
	".asciiz \"a\\q\"\n.word undefinedsym\n",
	"jalr t0, t1, t2\nnop\n",
	"break 0x100000\nbreak 1, 2\n",
	"tlbwi t0\n.word 5 % 0\n",
	"move t0\nnot t0, t1, t2\n",
}

// corrupt returns line with one of a fixed set of faults injected: a
// bad register, an unknown mnemonic, a duplicate label, a stray
// operand, a bad expression, a bad memory operand, an undefined
// symbol, a misaligned .align.
func corrupt(line string, kind int) string {
	switch kind % 8 {
	case 0:
		return strings.Replace(line, "t0", "q9", 1) + " q9"
	case 1:
		return "\tbogus " + line
	case 2:
		return "main: " + line
	case 3:
		return line + ", zz"
	case 4:
		return line + " + 0x"
	case 5:
		return "\tlw t0, 8[sp] " + line
	case 6:
		return "\t.word undefinedsym " + line
	default:
		return "\t.align 3\n" + line
	}
}

// TestErrorsGolden pins the exact diagnostic of every rejected source:
// the TestErrors cases, sources with several errors, and progen
// sources (seeds 0–9, every mode, plain and mutated) with one line
// corrupted at each of five positions, assembled behind the user
// runtime prelude (userrt.Assemble) so their line numbers continue
// after it. The diagnostics are made twice, first with the line memo
// empty and then with it warm, and both must match.
func TestErrorsGolden(t *testing.T) {
	asm.ResetLineMemo()
	for _, memo := range []string{"cold", "warm"} {
		t.Run(memo, func(t *testing.T) { checkGolden(t, "errors.golden", errorDiagnostics()) })
	}
}

// errorDiagnostics assembles every source TestErrorsGolden pins and
// returns the golden text.
func errorDiagnostics() string {
	var b strings.Builder
	record := func(name string, err error) {
		msg := "ok"
		if err != nil {
			msg = err.Error()
		}
		fmt.Fprintf(&b, "%s: %s\n", name, msg)
	}
	for i, src := range asm.ErrorCases {
		_, err := asm.Assemble(src, 0)
		record(fmt.Sprintf("errors/%d", i), err)
	}
	for i, src := range multiErrorSources {
		_, err := asm.Assemble(src, 0)
		record(fmt.Sprintf("multi/%d", i), err)
	}
	for seed := int64(0); seed < 10; seed++ {
		p := progen.Generate(seed)
		for _, mode := range []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware} {
			for _, mutate := range []bool{false, true} {
				lines := strings.Split(p.Source(mode, mutate), "\n")
				for k := 1; k <= 5; k++ {
					pos := len(lines) * k / 6
					bad := append([]string(nil), lines...)
					bad[pos] = corrupt(bad[pos], int(seed)+k)
					_, err := userrt.Assemble(strings.Join(bad, "\n"))
					record(fmt.Sprintf("progen/%d/%v/mutate=%v/line%d", seed, mode, mutate, pos+1), err)
				}
			}
		}
	}
	return b.String()
}
