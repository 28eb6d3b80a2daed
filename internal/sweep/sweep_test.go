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

	"uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/sweep"
)

// sweeps is the table every test below runs over: each sweep with its
// shard count and the seed count of its width rows and of its
// testdata/digests.golden part.
var sweeps = []struct {
	name               string
	kind               sweep.Kind
	shards             func(seeds int) int
	seeds, goldenSeeds int
}{
	{"campaign", harness.Campaign.Kind(), harness.Campaign.Shards, 6, 3},
	{"difftest", difftest.Oracle.Kind(), difftest.Oracle.Shards, 12, 4},
}

// run is one fresh or resumed sweep, its progress stream captured.
type run struct {
	res    sweep.Result
	stream string
}

func runSweep(t *testing.T, k sweep.Kind, o sweep.Options, done []json.RawMessage, journal func(int, json.RawMessage) error) run {
	t.Helper()
	var b bytes.Buffer
	o.Progress = &b
	res, err := k.Resume(context.Background(), o, done, journal)
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
// §12): byte identity at any width and from any journaled prefix,
// refusal of an oversized prefix and of a non-positive seed count, and
// a journal error that aborts with the journal's own error.
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
					t.Skip("runs a sweep once per journaled prefix")
				}
				const seeds = 3
				want := runSweep(t, sw.kind, sweep.Options{Seeds: seeds, Workers: 1}, nil, nil)

				// Capture every journaled digest, as the bytes the journal
				// would hold; each index must arrive once, in order.
				var mu sync.Mutex
				var journaled []json.RawMessage
				journal := func(i int, digest json.RawMessage) error {
					mu.Lock()
					defer mu.Unlock()
					if i != len(journaled) {
						t.Errorf("journaled shard %d after %d shards", i, len(journaled))
					}
					journaled = append(journaled, slices.Clone(digest))
					return nil
				}
				ck := runSweep(t, sw.kind, sweep.Options{Seeds: seeds, Workers: 2}, nil, journal)
				sameRun(t, "journaling", ck, want)
				if len(journaled) != sw.shards(seeds) {
					t.Fatalf("journaled %d shards, want the full %d-shard prefix", len(journaled), sw.shards(seeds))
				}
				// Resume from every other prefix and from the full one.
				for k := 2; k < len(journaled)+2; k += 2 {
					k := min(k, len(journaled))
					done := journaled[:k]
					got := runSweep(t, sw.kind, sweep.Options{Seeds: seeds, Workers: 2}, done,
						func(i int, _ json.RawMessage) error {
							if i < k {
								t.Errorf("resume from %d re-journaled shard %d", k, i)
							}
							return nil
						})
					sameRun(t, "resume from a journaled prefix", got, want)
				}
			})

			t.Run("oversized-checkpoint", func(t *testing.T) {
				done := make([]json.RawMessage, sw.shards(2)+1)
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
				_, err := sw.kind.Resume(context.Background(), sweep.Options{Seeds: 2, Workers: 1}, nil,
					func(int, json.RawMessage) error { return boom })
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
// (DESIGN.md §12) carry across processes and versions.
// testdata/digests.golden holds one line per shard: the 12 shards of a
// 3-seed campaign, then difftest seeds 0–3. It was written by an
// earlier version of the sweeps, so unlike the resume rows above it
// checks bytes this binary did not write. There is no -update: a
// change here means old journals no longer replay.
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
	for _, g := range sweeps {
		n := g.shards(g.goldenSeeds)
		if len(lines) < n {
			t.Fatalf("%s: golden has %d lines left, want %d", g.name, len(lines), n)
		}
		digests := lines[:n]
		lines = lines[n:]
		t.Run(g.name, func(t *testing.T) {
			// A fresh sweep's journal callback receives exactly the bytes
			// a durable node writes.
			o := sweep.Options{Seeds: g.goldenSeeds, Workers: 2}
			var journaled []json.RawMessage
			fresh := runSweep(t, g.kind, o, nil, func(i int, digest json.RawMessage) error {
				journaled = append(journaled, slices.Clone(digest))
				return nil
			})
			if len(journaled) != n {
				t.Fatalf("journaled %d shards, want %d", len(journaled), n)
			}
			for i, want := range digests {
				if got := journaled[i]; !bytes.Equal(got, want) {
					t.Errorf("shard %d digest differs\ngot:  %s\nwant: %s", i, got, want)
				}
			}
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
