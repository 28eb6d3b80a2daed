package soak

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/sweep"
	"uexc/internal/verdict"
)

// cancelAfter cancels ctx after n writes to the progress stream —
// a deterministic stand-in for a kill mid-sweep.
type cancelAfter struct {
	mu     sync.Mutex
	left   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left--
	if c.left <= 0 {
		c.cancel()
	}
	return len(p), nil
}

// TestSoakResumeByteIdentical: a soak killed at an arbitrary point and
// resumed from its §12 journal must reproduce the undisturbed sweep's
// progress stream, summaries, and verdict tally byte for byte — at a
// different worker width than the original run, since shards are
// deterministic functions of their index.
func TestSoakResumeByteIdentical(t *testing.T) {
	const seeds = 6
	ctx := context.Background()

	var wantProgress, wantOut bytes.Buffer
	want, err := Run(ctx, Options{Seeds: seeds, Workers: 1}, &wantProgress, &wantOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Gate(); err != nil {
		t.Fatalf("undisturbed sweep gated: %v", err)
	}

	// Kill points: mid fault campaign (21 shards) and mid difftest.
	for _, killAt := range []int{5, 23} {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			dir := t.TempDir()
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			w := &cancelAfter{left: killAt, cancel: cancel}
			_, err := Run(cctx, Options{Seeds: seeds, Workers: 2, Dir: dir}, w, io.Discard)
			if err == nil {
				t.Fatal("interrupted sweep did not abort")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("abort error = %v, want context.Canceled", err)
			}

			var gotProgress, gotOut bytes.Buffer
			got, err := Run(ctx, Options{Seeds: seeds, Workers: 3, Dir: dir}, &gotProgress, &gotOut)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if gotProgress.String() != wantProgress.String() {
				t.Errorf("resumed progress stream differs:\n--- got ---\n%s--- want ---\n%s",
					gotProgress.String(), wantProgress.String())
			}
			if gotOut.String() != wantOut.String() {
				t.Errorf("resumed output differs:\n--- got ---\n%s--- want ---\n%s",
					gotOut.String(), wantOut.String())
			}
			if got.Verdicts() != want.Verdicts() {
				t.Errorf("verdicts = %v, want %v", got.Verdicts(), want.Verdicts())
			}
			if err := got.Gate(); err != nil {
				t.Errorf("resumed sweep gated: %v", err)
			}
		})
	}
}

// TestSoakDurableRunMatchesEphemeral: journaling must not perturb the
// sweep — a store-backed run and a store-less run are byte-identical.
func TestSoakDurableRunMatchesEphemeral(t *testing.T) {
	const seeds = 4
	ctx := context.Background()
	var p1, o1, p2, o2 bytes.Buffer
	if _, err := Run(ctx, Options{Seeds: seeds, Workers: 2}, &p1, &o1); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, Options{Seeds: seeds, Workers: 2, Dir: t.TempDir()}, &p2, &o2); err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() || o1.String() != o2.String() {
		t.Error("durable run differs from ephemeral run")
	}
}

// TestSoakGate: the gate passes only when every run is classified and
// both engines' invariants hold.
func TestSoakGate(t *testing.T) {
	covered := &harness.CampaignResult{Exercised: map[string]uint64{}}
	for _, k := range harness.RequiredCoverage {
		covered.Exercised[k] = 1
	}
	clean := &Result{Phases: []sweep.Result{covered, &difftest.Result{SelfTestOK: true}}}
	if err := clean.Gate(); err != nil {
		t.Errorf("clean result gated: %v", err)
	}

	buggy := &harness.CampaignResult{Exercised: covered.Exercised}
	buggy.Verdicts.Add(verdict.EngineBug)
	bug := &Result{Phases: []sweep.Result{buggy, &difftest.Result{SelfTestOK: true}}}
	err := bug.Gate()
	if err == nil || !strings.Contains(err.Error(), "unclassified") {
		t.Errorf("engine-bug result not gated: %v", err)
	}

	div := &Result{Phases: []sweep.Result{covered, &difftest.Result{SelfTestOK: false}}}
	err = div.Gate()
	if err == nil || err.Error() != "soak: differential campaign failed (0 divergences, self-test ok: false)" {
		t.Errorf("failed self-test not gated: %v", err)
	}
}

// TestSoakVerdictsMerge: the merged tally is the sum of both phases.
func TestSoakVerdictsMerge(t *testing.T) {
	campaign, diff := &harness.CampaignResult{}, &difftest.Result{}
	campaign.Verdicts.Add(verdict.Clean)
	campaign.Verdicts.Add(verdict.KnownDivergent)
	diff.Verdicts.Add(verdict.Clean)
	diff.Verdicts.Add(verdict.BudgetScaled)
	v := (&Result{Phases: []sweep.Result{campaign, diff}}).Verdicts()
	if v[verdict.Clean] != 2 || v[verdict.KnownDivergent] != 1 || v[verdict.BudgetScaled] != 1 {
		t.Errorf("merged verdicts = %v", v)
	}
}
