package harness

import (
	"fmt"
	"strings"

	"uexc/internal/core"
)

// TraceDelivery renders Figures 1 and 2 as event traces: the actual
// sequence of steps one exception takes through the Unix machinery
// (Figure 1: multiple domain crossings and register saves) versus the
// fast path (Figure 2: one kernel excursion, return without the
// kernel).
func TraceDelivery() (string, error) {
	var b strings.Builder
	for i, fig := range []struct {
		mode  core.Mode
		title string
	}{
		{core.ModeUltrix, "Figure 1: one breakpoint through the Unix signal machinery"},
		{core.ModeFast, "Figure 2: the same breakpoint through the fast path"},
	} {
		evs, err := core.DeliveryEvents(fig.mode)
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s\n%s\n", fig.title, strings.Repeat("=", len(fig.title)))
		for _, e := range evs {
			fmt.Fprintf(&b, "  %7.2f µs  %s\n", core.Micros(e.Cycle-evs[0].Cycle), e.What)
		}
	}
	return b.String(), nil
}
