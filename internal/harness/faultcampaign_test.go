package harness

import (
	"context"
	"testing"

	"uexc/internal/core"
	"uexc/internal/cpu"
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

// TestCampaignFingerprintsAcrossEngines: every run's fingerprint —
// outcome, error text, console, stats, cycles, instructions and event
// log — is the same under the JIT, the fast path and the interpreter.
// One worker means one pooled machine serves every run, so its
// translated blocks and its watchdog are reused across checkouts.
func TestCampaignFingerprintsAcrossEngines(t *testing.T) {
	prev := cpu.DefaultEngine
	defer func() { cpu.DefaultEngine = prev }()
	const seeds = 40
	var ref []string
	for _, e := range []cpu.Engine{cpu.EngineInterp, cpu.EngineFast, cpu.EngineJIT} {
		cpu.DefaultEngine = e
		fps := runCampaign(t, seeds, 1).Fingerprints
		if len(fps) != seeds*len(campaignModes) {
			t.Fatalf("engine %d: %d fingerprints, want %d", e, len(fps), seeds*len(campaignModes))
		}
		if ref == nil {
			ref = fps
			continue
		}
		for i := range fps {
			if fps[i] != ref[i] {
				t.Fatalf("engine %d, seed %d mode %s: fingerprint differs from the interpreter's:\n  %s\n  %s",
					e, i/len(campaignModes), campaignModes[i%len(campaignModes)], fps[i], ref[i])
			}
		}
	}
}
