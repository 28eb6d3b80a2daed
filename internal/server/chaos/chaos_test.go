package chaos

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// runGauntlet runs the full gauntlet — kills, restarts, disconnects,
// faults, byte-identity, exact accounting — at test-suite size under
// one fault plan, and checks the harness narrates it: the plan line,
// one line per kill, and the final verdict.
func runGauntlet(t *testing.T, seed int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := Run(ctx, Config{Seeds: 4, Kills: 2, Seed: seed, Out: &out}); err != nil {
		t.Fatalf("chaos run (plan %d): %v\n%s", seed, err, out.String())
	}
	for _, want := range []string{
		fmt.Sprintf("chaos: plan seed %d", seed),
		"chaos: kill #1",
		"chaos: kill #2",
		"byte-identical",
		"metrics exact",
		"chaos: ok",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("plan %d transcript missing %q:\n%s", seed, want, out.String())
		}
	}
}

// TestChaosSmallScale runs the gauntlet under fault plan 1.
func TestChaosSmallScale(t *testing.T) { runGauntlet(t, 1) }

// TestChaosTranscript runs the gauntlet under fault plan 7.
func TestChaosTranscript(t *testing.T) { runGauntlet(t, 7) }

// TestPlanDeterminism pins the property every debugging session relies
// on: the same plan seed yields the same fault decisions.
func TestPlanDeterminism(t *testing.T) {
	a, b := plan{seed: 42}, plan{seed: 42}
	other := plan{seed: 43}
	same, diff := 0, 0
	for shard := 0; shard < 200; shard++ {
		fa, fb := a.fault(1, shard, 0), b.fault(1, shard, 0)
		if fa != fb {
			t.Fatalf("plan 42 disagrees with itself on shard %d: %+v vs %+v", shard, fa, fb)
		}
		if fa == other.fault(1, shard, 0) {
			same++
		} else {
			diff++
		}
		if ra := a.fault(1, shard, 1); ra.Panic || ra.Stall != 0 {
			t.Fatalf("retry attempt for shard %d is not clean: %+v", shard, ra)
		}
	}
	if diff == 0 {
		t.Fatalf("plans 42 and 43 agree on all %d shards; seed is not mixed in", same+diff)
	}
}

// TestFleetSmallScale runs the §13 distributed gauntlet — worker kill,
// coordinator kill with a torn compaction tmp, resume, byte-identity,
// exact accounting — at test-suite size.
func TestFleetSmallScale(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := FleetRun(ctx, FleetConfig{Seeds: 5, Seed: 3, Out: &out}); err != nil {
		t.Fatalf("fleet run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"fleet: worker 0 killed mid-range",
		"re-dispatched to the survivor",
		"torn compaction tmp planted",
		"byte-identical to the serial run",
		"fleet: ok",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("transcript missing %q:\n%s", want, out.String())
		}
	}
}
