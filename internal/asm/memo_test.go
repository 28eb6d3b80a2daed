package asm_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uexc/internal/asm"
)

// memoText is text k of the concurrency test: ¾ of the memo's bound in
// lines, half of them shared with text k+1, so the eight texts draw on
// more than three times the bound and the memo must evict. The lines
// cover every kind the memo stores — labels, bad statements,
// expressions with symbols and divisions, strings — and some too long
// to memoise.
func memoText(k int) string {
	var b strings.Builder
	n := asm.MemoSlots * 3 / 4
	for i := k * n / 2; i < k*n/2+n; i++ {
		switch i % 6 {
		case 0:
			fmt.Fprintf(&b, "l%d:\taddiu t%d, t%d, %d\n", i, i%8, (i+1)%8, i%30000)
		case 1:
			fmt.Fprintf(&b, "\tlw t0, sym%d+%d/(%d)(sp)\n", i, i, i%3)
		case 2:
			fmt.Fprintf(&b, "\tbogus%d t0\n", i)
		case 3:
			fmt.Fprintf(&b, "\t.asciiz \"s%d\\n\"\n", i)
		case 4:
			fmt.Fprintf(&b, "\t.word %d, x%d %% 7, ~%d\n", i, i, i)
		default:
			fmt.Fprintf(&b, "\tli a0, %d  # %s\n", i, strings.Repeat("-", i%200))
		}
	}
	return b.String()
}

// TestLineMemoConcurrent parses overlapping texts from four goroutines,
// each of which parses every text, past the memo's bound, and holds
// every result to the miss path. Run under -race it also checks that
// lookups, inserts and evictions share the memo safely.
func TestLineMemoConcurrent(t *testing.T) {
	const workers, texts = 4, 8
	want := make([]*asm.Text, texts)
	for k := range want {
		want[k] = asm.ParseUnmemoised(memoText(k))
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers*texts)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < texts; i++ {
				k := (w + i) % texts
				if got := asm.Parse(memoText(k)); !reflect.DeepEqual(got, want[k]) {
					errs <- fmt.Sprintf("worker %d: text %d differs from the miss path", w, k)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
