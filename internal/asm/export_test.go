package asm

import "strings"

// ErrorCases exposes the TestErrors sources to the external test
// package, which pins their diagnostics in errors.golden.
var ErrorCases = errorCases

// ParseUnmemoised is Parse with every line taking the miss path: each
// line is parsed straight into the text by parseLine, and the line
// memo is neither read nor written.
func ParseUnmemoised(src string) *Text {
	t := newText(src)
	line := int32(1)
	for rest, more := src, true; more; line++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		t.parseLine(line, raw)
	}
	return t
}

// MemoSlots is the line memo's bound, for tests that must pass it.
const MemoSlots = memoSlots

// ResetLineMemo empties the line memo, so the next Parse runs cold.
func ResetLineMemo() {
	for i := range lineMemo {
		lineMemo[i].e.Store(nil)
		lineMemo[i].hash.Store(0)
		memoSeen[i].Store(0)
	}
}
