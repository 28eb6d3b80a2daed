package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"uexc/internal/server"
)

// tinyConfig shrinks every workload to a smoke run of well under a
// second, race detector included.
func tinyConfig(workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace = workload, 3, trace
	cfg.seconds = 0.2
	cfg.minRounds = 2
	cfg.campaignBatch = 4
	cfg.difftestBatch = 2
	cfg.serveWarmup = 0.1
	cfg.jobSeeds = 1
	cfg.checkSample = 5
	cfg.probeSeeds = 2
	cfg.setupProbes = 0
	return cfg
}

func names(ds []decl) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny
// size: each must pass its checks and report exactly its mode's
// declared metrics.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(tinyConfig(w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: checks failed: %v", w, trace, res.problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var got []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, names(want)) {
				t.Errorf("%s trace=%v: printed metrics %v, declared %v", w, trace, got, names(want))
			}
		}
	}
}

// TestDeclarationsMatchBenchmarkJSON holds the metric lists to the
// repository's BENCHMARK.json: same names, units and directions.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		declared []decl
		file     []entry
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		var want, got []entry
		for _, d := range c.declared {
			want = append(want, entry{d.name, d.unit, d.better})
		}
		got = append(got, c.file...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json has\n%v\nthe benchmark declares\n%v", c.kind, got, want)
		}
	}
}

// TestTailRule: a reported tail percentile keeps at least ten samples
// beyond it, and is the highest candidate that does.
func TestTailRule(t *testing.T) {
	for n, want := range map[int]float64{
		5: 0.5, 39: 0.5, 40: 0.75, 100: 0.9, 199: 0.9, 200: 0.95,
		999: 0.95, 1000: 0.99, 9999: 0.99, 10000: 0.999,
	} {
		if got := tailQ(n); got != want {
			t.Errorf("tailQ(%d) = %g, want %g", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, q := tail(xs); q != 0.9 || v != 90 {
		t.Errorf("tail(1..100) = %g at q=%g, want 90 at 0.9", v, q)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestServeScheduleSeeded: the open-loop request list and arrival times
// are a function of the seed and the rate alone, and at another rate
// the same requests arrive with proportionally scaled gaps.
func TestServeScheduleSeeded(t *testing.T) {
	a := newMix(7, openStream, 4).schedule(120, 2*time.Second, 0)
	b := newMix(7, openStream, 4).schedule(120, 2*time.Second, 0)
	c := newMix(8, openStream, 4).schedule(120, 2*time.Second, 0)
	if len(a) < 100 {
		t.Fatalf("2s at 120/s drew only %d jobs", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, newMix(7, closedStream, 4).schedule(120, 2*time.Second, 0)) {
		t.Error("the open and closed streams drew the same requests")
	}
	half := newMix(7, openStream, 4).schedule(60, 4*time.Second, 0)
	for i := range min(len(a), len(half)) {
		if !reflect.DeepEqual(a[i].req, half[i].req) {
			t.Fatalf("job %d: request depends on the rate", i)
		}
		if d := half[i].at - 2*a[i].at; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("job %d: at half the rate it arrives at %v, want %v", i, half[i].at, 2*a[i].at)
		}
	}
	if got := newMix(7, openStream, 4).schedule(1, time.Millisecond, 5); len(got) != 5 {
		t.Errorf("minJobs 5 drew %d jobs", len(got))
	}
}

// TestServeMixDealsShares: every ten decks of requests hold exactly
// the mix's shares, half the program seeds hot.
func TestServeMixDealsShares(t *testing.T) {
	m := newMix(5, openStream, 4)
	count := map[server.Type]int{}
	hot := 0
	for range 10 * len(deck) {
		r := m.next()
		count[r.Type]++
		if r.Seed != 0 && r.Seed < m.base+hotSeeds {
			hot++
		}
	}
	want := map[server.Type]int{
		server.TypeProgramRun: 120, server.TypeDebugSession: 40, server.TypeCampaign: 20, server.TypeDifftest: 20,
	}
	if !reflect.DeepEqual(count, want) || hot != 80 {
		t.Errorf("200 jobs dealt %v with %d hot program seeds, want %v with 80", count, hot, want)
	}
}

// TestGuestPinned: the guest measurements match the modelled design on
// every run, and a design that moves one cycle fails the run.
func TestGuestPinned(t *testing.T) {
	res := newResult(false)
	if err := measureGuest(res); err != nil {
		t.Fatal(err)
	}
	if len(res.problems) != 0 {
		t.Fatalf("guest checks failed: %v", res.problems)
	}
	saved := modelled
	defer func() { modelled = saved }()
	modelled.fast.RoundTrip++
	modelled.phases.Save--
	res = newResult(false)
	if err := measureGuest(res); err != nil {
		t.Fatal(err)
	}
	if len(res.problems) != 2 {
		t.Errorf("moved fast round trip and Table 3 save phase: %d problems, want 2: %v", len(res.problems), res.problems)
	}
}

// TestProgramRunCheckCatchesWrongOutput plants a wrong expected output
// and a wrong served output; both must fail the serve check.
func TestProgramRunCheckCatchesWrongOutput(t *testing.T) {
	pool, err := newWarmPool()
	if err != nil {
		t.Fatal(err)
	}
	req := server.Request{Type: server.TypeProgramRun, Seed: 11, Mode: "fast"}
	served, err := localProgramRun(pool, req)
	if err != nil {
		t.Fatal(err)
	}
	local := func(r server.Request) (string, error) { return localProgramRun(pool, r) }
	outs := []outcome{{req: req, complete: true, ok: true, summary: served}}
	if p := checkProgramRuns(outs, 10, 1, local); len(p) != 0 {
		t.Fatalf("matching output flagged: %v", p)
	}
	wrongLocal := func(r server.Request) (string, error) { s, err := local(r); return s + "x", err }
	if p := checkProgramRuns(outs, 10, 1, wrongLocal); len(p) != 1 {
		t.Errorf("planted wrong expected output: %d problems, want 1", len(p))
	}
	outs[0].summary = served[1:]
	if p := checkProgramRuns(outs, 10, 1, local); len(p) != 1 {
		t.Errorf("planted wrong served output: %d problems, want 1", len(p))
	}
}
