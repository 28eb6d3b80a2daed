package harness

import (
	"context"
	"testing"

	"uexc/internal/core"
	"uexc/internal/sweep"
)

// runCampaign runs a fresh seeds-sized campaign over workers.
func runCampaign(t *testing.T, seeds, workers int) *CampaignResult {
	t.Helper()
	res, err := Campaign.Resume(context.Background(), sweep.Options{Seeds: seeds, Workers: workers}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.(*CampaignResult)
}

// TestFaultCampaignSmoke runs a short campaign: every required
// category must be exercised, every run must be deterministic, and no
// panic, invariant violation, or budget exhaustion may occur.
func TestFaultCampaignSmoke(t *testing.T) {
	res := runCampaign(t, 8, 1)
	if err := res.Err(); err != nil {
		t.Fatalf("%v:\n%s", err, res.Summary())
	}
	if res.Outcomes["survived"] == 0 {
		t.Errorf("no run survived to clean exit:\n%s", res.Summary())
	}
	if res.Runs != 8*3*2+3 {
		t.Errorf("runs = %d, want %d", res.Runs, 8*3*2+3)
	}
}

// TestLivelockProbeAllModes: the deliberate state cycle must be
// classified by the watchdog, not by budget exhaustion.
func TestLivelockProbeAllModes(t *testing.T) {
	pool := &core.MachinePool{}
	for _, mode := range []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware} {
		outcome, fail := livelockProbe(pool, mode)
		if fail != "" {
			t.Errorf("mode %s: %s", mode, fail)
		}
		if outcome != "livelock detected" {
			t.Errorf("mode %s: outcome %q", mode, outcome)
		}
	}
}
