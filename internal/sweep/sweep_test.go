package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"uexc/internal/core"
	"uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/sweep"
)

// sweeps is the table every test below runs over: each sweep with the
// seed count of its width rows and of its testdata/digests.golden part.
var sweeps = []struct {
	name               string
	kind               sweep.Kind
	seeds, goldenSeeds int
}{
	{"campaign", harness.Campaign.Kind(), 6, 3},
	{"difftest", difftest.Oracle.Kind(), 12, 4},
}

// run is one fresh or resumed sweep, its progress stream captured.
type run struct {
	res    sweep.Result
	stream string
}

func runSweep(t *testing.T, k sweep.Kind, o sweep.Options, done []json.RawMessage, save func([]json.RawMessage) error) run {
	t.Helper()
	var b bytes.Buffer
	o.Progress = &b
	res, err := k.Resume(context.Background(), o, done, save)
	if err != nil {
		t.Fatalf("seeds=%d workers=%d resume-from=%d: %v", o.Seeds, o.Workers, len(done), err)
	}
	return run{res, b.String()}
}

// sameRun demands byte identity: the whole folded result (for the
// campaign that includes every per-run fingerprint, and so the summary
// too) and the progress stream.
func sameRun(t *testing.T, what string, got, want run) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: result differs\ngot:  %+v\nwant: %+v", what, got.res, want.res)
	}
	if got.stream != want.stream {
		t.Errorf("%s: progress stream differs:\n%s\nvs\n%s", what, got.stream, want.stream)
	}
}

// TestSweeps holds both sweeps to the driver's contracts (DESIGN.md §8,
// §12): byte identity at any width and from any checkpoint, refusal of
// an oversized checkpoint and of a non-positive seed count, and a save
// error that aborts with the save's own error.
func TestSweeps(t *testing.T) {
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			t.Run("widths", func(t *testing.T) {
				serial := runSweep(t, sw.kind, sweep.Options{Seeds: sw.seeds, Workers: 1}, nil, nil)
				if err := serial.res.Err(); err != nil {
					t.Fatalf("%v:\n%s", err, serial.res.Summary())
				}
				if cr, ok := serial.res.(*harness.CampaignResult); ok && len(cr.Fingerprints) != sw.seeds*3 {
					t.Fatalf("serial fingerprints = %d, want %d", len(cr.Fingerprints), sw.seeds*3)
				}
				for _, workers := range []int{2, runtime.NumCPU()} {
					par := runSweep(t, sw.kind, sweep.Options{Seeds: sw.seeds, Workers: workers}, nil, nil)
					sameRun(t, fmt.Sprintf("workers=%d", workers), par, serial)
				}
			})

			t.Run("resume", func(t *testing.T) {
				if testing.Short() {
					t.Skip("runs a sweep once per checkpoint")
				}
				const seeds = 3
				want := runSweep(t, sw.kind, sweep.Options{Seeds: seeds, Workers: 1}, nil, nil)

				// Capture every checkpoint at a tight cadence, as the bytes
				// the journal would hold.
				var mu sync.Mutex
				var checkpoints [][]json.RawMessage
				save := func(prefix []json.RawMessage) error {
					mu.Lock()
					checkpoints = append(checkpoints, slices.Clone(prefix))
					mu.Unlock()
					return nil
				}
				ck := runSweep(t, sw.kind, sweep.Options{Seeds: seeds, Workers: 2, Every: 2}, nil, save)
				sameRun(t, "checkpointing", ck, want)
				if n := len(checkpoints); n == 0 || len(checkpoints[n-1]) != sw.kind.Shards(seeds) {
					t.Fatalf("checkpoints do not end at the full %d-shard prefix", sw.kind.Shards(seeds))
				}
				for _, done := range checkpoints {
					got := runSweep(t, sw.kind, sweep.Options{Seeds: seeds, Workers: 2, Every: 2}, done,
						func([]json.RawMessage) error { return nil })
					sameRun(t, "resume from a checkpoint", got, want)
				}
			})

			t.Run("oversized-checkpoint", func(t *testing.T) {
				done := make([]json.RawMessage, sw.kind.Shards(2)+1)
				for i := range done {
					done[i] = json.RawMessage("{}")
				}
				_, err := sw.kind.Resume(context.Background(), sweep.Options{Seeds: 2, Workers: 1}, done, nil)
				if err == nil || !strings.Contains(err.Error(), "checkpoint has") {
					t.Fatalf("oversized checkpoint: err = %v", err)
				}
			})

			t.Run("save-error", func(t *testing.T) {
				boom := errors.New("journal full")
				_, err := sw.kind.Resume(context.Background(), sweep.Options{Seeds: 2, Workers: 1, Every: 1}, nil,
					func([]json.RawMessage) error { return boom })
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want %v", err, boom)
				}
			})

			t.Run("bad-seeds", func(t *testing.T) {
				for _, seeds := range []int{0, -3} {
					if _, err := sw.kind.Resume(context.Background(), sweep.Options{Seeds: seeds}, nil, nil); err == nil {
						t.Errorf("seeds=%d accepted", seeds)
					}
				}
			})
		})
	}
}

// TestDigestWireFormat pins the shard digests' JSON, which journals
// (DESIGN.md §12) and the fleet protocol (§13) carry across processes
// and versions. testdata/digests.golden holds one line per shard: the
// 12 shards of a 3-seed campaign, then difftest seeds 0–3. It was
// written by an earlier version of the sweeps, so unlike the resume
// rows above it checks bytes this binary did not write. There is no
// -update: a change here means old journals no longer replay.
func TestDigestWireFormat(t *testing.T) {
	raw, err := os.ReadFile("testdata/digests.golden")
	if err != nil {
		t.Fatal(err)
	}
	var lines []json.RawMessage
	for _, l := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(l) > 0 {
			lines = append(lines, bytes.TrimSuffix(l, []byte("\n")))
		}
	}
	pool := &core.MachinePool{}
	for _, g := range sweeps {
		n := g.kind.Shards(g.goldenSeeds)
		if len(lines) < n {
			t.Fatalf("%s: golden has %d lines left, want %d", g.name, len(lines), n)
		}
		digests := lines[:n]
		lines = lines[n:]
		t.Run(g.name, func(t *testing.T) {
			for i, want := range digests {
				got, err := g.kind.RunShard(pool, g.goldenSeeds, i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("shard %d digest differs\ngot:  %s\nwant: %s", i, got, want)
				}
			}
			o := sweep.Options{Seeds: g.goldenSeeds, Workers: 2}
			fresh := runSweep(t, g.kind, o, nil, nil)
			for _, k := range []int{n / 2, n} {
				resumed := runSweep(t, g.kind, o, digests[:k], nil)
				sameRun(t, "resume from the golden prefix", resumed, fresh)
			}
		})
	}
	if len(lines) != 0 {
		t.Errorf("golden has %d unchecked lines", len(lines))
	}
}
