package cpu

import (
	"testing"

	"uexc/internal/arch"
)

// TestWatchdogResetBoundsRetainedPages: Reset keeps coverage pages for
// reuse only up to maxRetainedPages, so one run that wandered over many
// code pages does not pin them for the machine's lifetime, and a reset
// watchdog starts with empty coverage either way.
func TestWatchdogResetBoundsRetainedPages(t *testing.T) {
	w := NewWatchdog()
	for _, pages := range []uint32{3, maxRetainedPages + 1} {
		for p := uint32(0); p < pages; p++ {
			if !w.visit(p << arch.PageShift) {
				t.Fatalf("%d pages: pc %#x already covered after a reset", pages, p<<arch.PageShift)
			}
		}
		w.Reset()
		if pages > maxRetainedPages && len(w.cover) != 0 {
			t.Errorf("%d pages: reset retained %d coverage pages", pages, len(w.cover))
		}
		if pages <= maxRetainedPages && len(w.cover) != int(pages) {
			t.Errorf("%d pages: reset kept %d of them for reuse", pages, len(w.cover))
		}
	}
}
