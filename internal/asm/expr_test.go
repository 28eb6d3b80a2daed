package asm

import (
	"strings"
	"testing"
	"testing/quick"
)

// evalExpr compiles and evaluates one expression on its own. A nil
// syms admits no symbols.
func evalExpr(src string, syms map[string]uint32) (uint32, error) {
	var t Text
	return t.eval(t.compile(src), syms)
}

func evalOK(t *testing.T, src string, syms map[string]uint32) uint32 {
	t.Helper()
	v, err := evalExpr(src, syms)
	if err != nil {
		t.Fatalf("evalExpr(%q): %v", src, err)
	}
	return v
}

func TestExprLiterals(t *testing.T) {
	cases := map[string]uint32{
		"0":          0,
		"42":         42,
		"0x2a":       42,
		"0b101":      5,
		"0o17":       15,
		"'A'":        65,
		"'\\n'":      10,
		"'\\0'":      0,
		"'\\\\'":     92,
		"0xffffffff": 0xffffffff,
	}
	for src, want := range cases {
		if got := evalOK(t, src, nil); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestExprPrecedence(t *testing.T) {
	cases := map[string]uint32{
		"1 + 2 * 3":        7,
		"(1 + 2) * 3":      9,
		"1 << 4 | 1":       17,
		"6 / 2 + 1":        4,
		"7 %% 3":           0, // will be fixed below: literal % in go string
		"10 - 2 - 3":       5, // left associative
		"1 | 2 | 4":        7,
		"0xff & 0x0f":      0x0f,
		"1 << 2 << 1":      8,
		"~0 >> 28":         0xf,
		"-1 + 2":           1,
		"2 * -3 + 10":      4,
		"5 ^ 3":            6,
		"(1 << 10) - 1":    1023,
		"0x80000000 >> 31": 1,
	}
	delete(cases, "7 %% 3")
	cases["7 % 3"] = 1
	for src, want := range cases {
		if got := evalOK(t, src, nil); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestExprSymbols(t *testing.T) {
	syms := map[string]uint32{"base": 0x1000, "off": 8, "UAREA": 0x80040000}
	if got := evalOK(t, "base + off*4", syms); got != 0x1020 {
		t.Errorf("got %#x", got)
	}
	if got := evalOK(t, "UAREA >> 16", syms); got != 0x8004 {
		t.Errorf("got %#x", got)
	}
}

func TestExprErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "1)", "nosuchsym", "1 / 0", "1 % 0",
		"'x", "'\\q'", "0x", "4294967296", "1 @ 2",
	}
	for _, src := range bad {
		if _, err := evalExpr(src, nil); err == nil {
			t.Errorf("evalExpr(%q) succeeded", src)
		}
	}
}

func TestExprSymbolInConstantOnlyContext(t *testing.T) {
	_, err := evalExpr("somesym", nil)
	if err == nil || !strings.Contains(err.Error(), "constant-only") {
		t.Errorf("err = %v", err)
	}
}

// TestExprMatchesGoSemantics: random small expressions agree with Go's
// evaluation of the same operators.
func TestExprMatchesGoSemantics(t *testing.T) {
	type op struct {
		sym string
		fn  func(a, b uint32) uint32
	}
	ops := []op{
		{"+", func(a, b uint32) uint32 { return a + b }},
		{"-", func(a, b uint32) uint32 { return a - b }},
		{"*", func(a, b uint32) uint32 { return a * b }},
		{"&", func(a, b uint32) uint32 { return a & b }},
		{"|", func(a, b uint32) uint32 { return a | b }},
		{"^", func(a, b uint32) uint32 { return a ^ b }},
		{"<<", func(a, b uint32) uint32 { return a << (b & 31) }},
		{">>", func(a, b uint32) uint32 { return a >> (b & 31) }},
	}
	f := func(a, b uint32, which uint8) bool {
		o := ops[int(which)%len(ops)]
		src := formatU(a) + " " + o.sym + " " + formatU(b)
		got, err := evalExpr(src, nil)
		return err == nil && got == o.fn(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func formatU(v uint32) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return string(buf[i:])
}
