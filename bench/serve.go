package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"uexc/internal/core"
	"uexc/internal/debug"
	"uexc/internal/difftest"
	"uexc/internal/kernel"
	"uexc/internal/progen"
	"uexc/internal/server"
)

// testServer is the program under test for the serve workload: a
// server.Server with its HTTP API on an ephemeral localhost port.
type testServer struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
	client *http.Client
}

// startServer builds the server with the fixed sizing, listens, and
// returns once /healthz answers.
func startServer() (*testServer, error) {
	srv, err := server.New(server.Config{Workers: workers, WarmBoot: true, QueueDepth: 1024})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ts := &testServer{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}},
	}
	go func() { ts.served <- ts.hs.Serve(ln) }()
	resp, err := ts.client.Get(ts.base + "/healthz")
	if err != nil {
		ts.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ts.close()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return ts, nil
}

// close drains the server, stops the listener, and waits for both.
func (ts *testServer) close() {
	ts.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ts.hs.Shutdown(ctx) // the listener error below is the one that matters
	<-ts.served
	ts.srv.Close()
	ts.client.CloseIdleConnections()
}

// metrics fetches /metrics?format=json.
func (ts *testServer) metrics() (server.Snapshot, error) {
	var snap server.Snapshot
	resp, err := ts.client.Get(ts.base + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snap, nil
}

// jobSpec is one scheduled request: at is its send time from the start
// of its phase (open loop only).
type jobSpec struct {
	at  time.Duration
	req server.Request
}

// serveSeedBase places the serve workload's program seeds: the hot set
// is [base, base+hotSeeds), and each stream's unique seeds count up
// from its own offset above it.
func serveSeedBase(seed int64) int64 { return 10_000_000 + seed*seedBase }

const hotSeeds = 32

// serveLoad is the open loop's arrival rate as a share of the run's
// measured closed-loop capacity: the operating point, low enough that
// the server never saturates, high enough that queueing shows.
const serveLoad = 0.4

// The serve workload draws its requests from two streams of the run's
// seed: the closed-loop phases take as many requests as the host's
// speed lets them, so the open loop draws from its own stream and its
// request list does not depend on how many jobs came before it.
const (
	openStream   = 0
	closedStream = 1
)

// card is one job kind of the serve mix; hot picks a program seed from
// the hot set instead of a unique one.
type card struct {
	typ server.Type
	hot bool
}

// deck is one cycle of the serve mix, 20 jobs: 60% program-run, 20%
// debug-session, 10% campaign, 10% difftest, with half the program
// seeds hot. The shares and the hot set are assumptions, not drawn from
// recorded job traffic (README.md, "Workloads"). The long sweep jobs
// take most of the server's time, so the mix deals the deck shuffled
// rather than drawing each job independently: every run's composition
// then matches the shares to within one deck, and no seed makes a run
// slower by drawing more sweeps.
var deck = func() []card {
	var d []card
	for _, c := range []struct {
		card
		n int
	}{
		{card{server.TypeProgramRun, true}, 6}, {card{server.TypeProgramRun, false}, 6},
		{card{server.TypeDebugSession, true}, 2}, {card{server.TypeDebugSession, false}, 2},
		{card{server.TypeCampaign, false}, 2}, {card{server.TypeDifftest, false}, 2},
	} {
		for range c.n {
			d = append(d, c.card)
		}
	}
	return d
}()

// mix deals one stream of the serve workload's requests from shuffled
// decks; modes are uniform.
type mix struct {
	rng      *rand.Rand
	hand     []int // the current deck's undealt cards
	base     int64
	unique   int64
	jobSeeds int
}

func newMix(seed, stream int64, jobSeeds int) *mix {
	return &mix{
		rng:      rand.New(rand.NewSource(2*seed + stream)),
		base:     serveSeedBase(seed),
		unique:   hotSeeds + stream*seedBase/2,
		jobSeeds: jobSeeds,
	}
}

var modes = []string{"ultrix", "fast", "hardware"}

func (m *mix) next() server.Request {
	if len(m.hand) == 0 {
		m.hand = m.rng.Perm(len(deck))
	}
	c := deck[m.hand[0]]
	m.hand = m.hand[1:]
	mode := modes[m.rng.Intn(len(modes))]
	switch c.typ {
	case server.TypeProgramRun:
		return server.Request{Type: c.typ, Seed: m.programSeed(c.hot), Mode: mode}
	case server.TypeDebugSession:
		return server.Request{Type: c.typ, Seed: m.programSeed(c.hot), Mode: mode, Commands: debugScript()}
	}
	return server.Request{Type: c.typ, Seeds: m.jobSeeds, Parallel: 1}
}

func (m *mix) programSeed(hot bool) int64 {
	if hot {
		return m.base + m.rng.Int63n(hotSeeds)
	}
	m.unique++
	return m.base + m.unique - 1
}

// schedule draws Poisson arrivals at rate per second for dur, and at
// least minJobs of them. Job i's request and its gap in mean
// inter-arrival times depend on the seed alone; the rate only scales
// the gaps.
func (m *mix) schedule(rate float64, dur time.Duration, minJobs int) []jobSpec {
	var out []jobSpec
	for t := 0.0; ; {
		t += m.rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur && len(out) >= minJobs {
			return out
		}
		out = append(out, jobSpec{at: at, req: m.next()})
	}
}

// debugScript is the smoke harness's trapframe watch, in six commands:
// watch the kernel trapframe page, run to the first hit, inspect it and
// the registers, clear the watch, and run to exit.
func debugScript() []debug.Command {
	tf := uint32(kernel.KStackTop - kernel.TrapframeSize)
	return []debug.Command{
		{Op: "watch-page", Addr: tf},
		{Op: "continue"},
		{Op: "inspect", Addr: tf, N: 8},
		{Op: "regs"},
		{Op: "clear", Addr: tf},
		{Op: "continue"},
	}
}

// outcome is one job as the client saw it, with the instants the
// per-layer split needs.
type outcome struct {
	req                                   server.Request
	scheduled, sent, accepted, got, ended time.Time
	execMS                                int64
	ok, complete                          bool
	summary, err                          string
}

func (o *outcome) latency() time.Duration { return o.ended.Sub(o.scheduled) }

// post sends one job and reads its NDJSON stream to the trailer,
// verifying the trailer's record count and FNV-1a fingerprint.
func (ts *testServer) post(req server.Request) outcome {
	o := outcome{req: req}
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.sent = time.Now()
	resp, err := ts.client.Post(ts.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err.Error()
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Sprintf("status %d", resp.StatusCode)
		return o
	}
	h := fnv.New64a()
	records := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			o.err = "malformed event: " + err.Error()
			return o
		}
		now := time.Now()
		switch ev.Type {
		case "accepted":
			o.accepted = now
		case "result":
			o.got, o.summary, o.err, o.execMS = now, ev.Summary, ev.Error, ev.ElapsedMS
			o.ok = ev.OK != nil && *ev.OK
		case "trailer":
			o.ended = now
			o.complete = ev.Records == records && ev.FNV == fmt.Sprintf("%016x", h.Sum64()) && !o.got.IsZero()
			if !o.complete {
				o.err = "trailer does not match the stream"
			}
			return o
		}
		h.Write(sc.Bytes())
		h.Write([]byte{'\n'})
		records++
	}
	o.err = "stream ended without a trailer"
	return o
}

// openLoop sends every job at its scheduled instant, whatever the
// server's state, and waits for all of them.
func (ts *testServer) openLoop(specs []jobSpec) []outcome {
	outs := make([]outcome, len(specs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range specs {
		at := start.Add(s.at)
		time.Sleep(time.Until(at))
		wg.Add(1)
		go func(i int, req server.Request) {
			defer wg.Done()
			outs[i] = ts.post(req)
			outs[i].scheduled = at
		}(i, s.req)
	}
	wg.Wait()
	return outs
}

// closedLoop runs clients that each send their next job only when the
// previous one finished, until dur has passed, and returns the jobs and
// the time from start to the last completion.
func (ts *testServer) closedLoop(m *mix, clients int, dur time.Duration) ([]outcome, time.Duration) {
	var (
		mu   sync.Mutex
		outs []outcome
		last time.Time
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				mu.Lock()
				req := m.next()
				mu.Unlock()
				o := ts.post(req)
				o.scheduled = o.sent
				mu.Lock()
				outs = append(outs, o)
				if o.ended.After(last) {
					last = o.ended
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, last.Sub(start)
}

// runServe drives the in-process server: a closed-loop warm-up, two
// closed-loop clients for 40% of the measured time (the server's
// capacity), then an open loop of Poisson arrivals at serveLoad of
// that capacity for the rest. Offering a fixed share of the run's own
// capacity keeps the server's utilisation, and so the queueing share of
// latency, the same on a slow host and a fast one; a fixed rate would
// not. Every job must finish ok with a verified trailer; afterwards
// /metrics must agree with the client's failure count and a seeded
// sample of program-run outputs must match a local run through
// core.MachinePool.
func runServe(cfg config, res *result, tr *tracer, host *hostClock) error {
	ts, err := startServer()
	if err != nil {
		return err
	}
	defer ts.close()

	closed := newMix(cfg.seed, closedStream, cfg.jobSeeds)
	window := time.Duration(cfg.seconds * float64(time.Second))
	openDur := window * 6 / 10
	all, _ := ts.closedLoop(closed, workers, time.Duration(cfg.serveWarmup*float64(time.Second)))

	host.sample()
	sat, satWall := ts.closedLoop(closed, workers, window-openDur)
	capacity := ratio(float64(len(sat)), satWall.Seconds())
	rate := serveLoad * capacity

	host.sample()
	before, err := ts.metrics()
	if err != nil {
		return err
	}
	allocs := totalAlloc()
	open := ts.openLoop(newMix(cfg.seed, openStream, cfg.jobSeeds).schedule(rate, openDur, cfg.minRounds))
	res.noteAllocs(allocs, len(open))
	mid, err := ts.metrics()
	if err != nil {
		return err
	}
	res.noteLiveHeap()
	host.sample()
	all = append(append(all, sat...), open...)

	failures := 0
	for _, o := range all {
		res.Attempted++
		if !o.complete || !o.ok {
			res.Failed++
			res.fail("%s job (seed %d): %s", o.req.Type, o.req.Seed, o.err)
		}
		if o.complete && !o.ok {
			failures++
		}
	}
	after, err := ts.metrics()
	if err != nil {
		return err
	}
	if after.JobsFailed != uint64(failures) {
		res.fail("/metrics counts %d failed jobs, the client saw %d", after.JobsFailed, failures)
	}
	local, err := newWarmPool()
	if err != nil {
		return err
	}
	for _, p := range checkProgramRuns(all, cfg.checkSample, cfg.seed, func(r server.Request) (string, error) {
		return localProgramRun(local, r)
	}) {
		res.fail("%s", p)
	}

	var lat, execMS []float64
	late := 0
	for _, o := range open {
		lat = append(lat, ms(o.latency()))
		if o.sent.Sub(o.scheduled) > time.Millisecond {
			late++
		}
		execMS = append(execMS, float64(o.execMS))
	}
	p50 := median(lat)
	tailLat, q := tail(lat)
	fmt.Printf("serve: closed loop %d clients: %d jobs, %.1f jobs/s; open loop %d jobs at %.1f/s (%g of that), "+
		"p50 %.2f ms, p%g %.2f ms\n",
		workers, len(sat), capacity, len(open), rate, serveLoad, p50, 100*q, tailLat)
	res.set("op_p50_ms", p50)
	res.set("ops_per_s", capacity)
	if tr != nil {
		// The job spans are built from the client's instants after the
		// open loop ends, so tracing cannot slow the jobs; its overhead
		// is the time recording the spans takes, against the loop's.
		var parts [4]float64 // admit, wait, exec, stream, summed over jobs
		start := time.Now()
		for i := range open {
			traceJob(tr, i, &open[i], &parts)
		}
		res.set("trace.overhead_frac", ratio(time.Since(start).Seconds(), openDur.Seconds()))
		latSum := sum(lat)
		for i, name := range []string{"admit", "wait", "exec", "stream"} {
			res.set("server."+name+"_frac", ratio(parts[i], latSum))
		}
		opStats(res, lat)
		res.set("server.late_send_frac", ratio(float64(late), float64(len(open))))
		res.set("server.tail_over_p50", ratio(tailLat, p50))
		res.set("server.pool_hit_rate", after.PoolHitRate)
		res.set("parallel.busy_frac", ratio(sum(execMS), workers*ms(openDur)))
		res.set("kernel.insts_per_op", ratio(float64(mid.SimInsts-before.SimInsts), float64(len(open))))
	}
	return nil
}

// traceJob records one finished open-loop job's spans from the client's
// instants: send lag, admission (POST to accepted event), queue wait,
// execution (the result's elapsed_ms, whole milliseconds), and
// streaming (result to trailer). parts accumulates the last four in ms.
func traceJob(tr *tracer, i int, o *outcome, parts *[4]float64) {
	req := fmt.Sprint("job-", i)
	execStart := o.got.Add(-time.Duration(o.execMS) * time.Millisecond)
	if execStart.Before(o.accepted) {
		execStart = o.accepted
	}
	id := tr.add(0, "server", "job", req, o.scheduled, o.ended)
	tr.add(id, "bench", "send_lag", req, o.scheduled, o.sent)
	for k, seg := range []struct {
		name     string
		from, to time.Time
	}{
		{"admit", o.sent, o.accepted},
		{"wait", o.accepted, execStart},
		{"exec", execStart, o.got},
		{"stream", o.got, o.ended},
	} {
		tr.add(id, "server", seg.name, req, seg.from, seg.to)
		parts[k] += ms(seg.to.Sub(seg.from))
	}
}

// checkProgramRuns re-runs a seeded sample of up to n program-run jobs
// through local and returns one problem per output that differs.
func checkProgramRuns(outs []outcome, n int, seed int64, local func(server.Request) (string, error)) []string {
	var runs []outcome
	for _, o := range outs {
		if o.req.Type == server.TypeProgramRun && o.complete && o.ok {
			runs = append(runs, o)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	var problems []string
	for _, o := range runs[:min(n, len(runs))] {
		want, err := local(o.req)
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("local program-run seed %d: %v", o.req.Seed, err))
		case want != o.summary:
			problems = append(problems, fmt.Sprintf("program-run seed %d mode %s: served output differs from a local run",
				o.req.Seed, o.req.Mode))
		}
	}
	return problems
}

// localProgramRun runs a program-run request on a local pool and
// renders the summary the server streams for it. The rendering is a
// deliberate copy of server.runProgram's (internal/server/job.go): the
// server does not export it, and the benchmark reaches the server only
// through its public API. A rewording there fails this check until the
// copy follows; exporting the renderer and calling it here would end
// the duplication.
func localProgramRun(pool *core.MachinePool, r server.Request) (string, error) {
	mode, err := server.ParseMode(r.Mode)
	if err != nil {
		return "", err
	}
	p := progen.Generate(r.Seed)
	m, err := pool.Get()
	if err != nil {
		return "", err
	}
	defer pool.Put(m)
	if err := m.LoadProgram(p.Source(mode, false)); err != nil {
		return "", err
	}
	if mode == core.ModeHardware {
		m.EnableHardwareDelivery(progen.HWVector)
	}
	runErr := m.Run(difftest.Budget)

	var b strings.Builder
	fmt.Fprintf(&b, "program-run: seed %d mode %s\n", r.Seed, mode)
	episodes := make([]string, 0, len(p.Episodes))
	for _, k := range p.Episodes {
		episodes = append(episodes, k.String())
	}
	fmt.Fprintf(&b, "episodes: %s\n", strings.Join(episodes, " "))
	fmt.Fprintf(&b, "console: %q\n", m.K.Console())
	c := m.CPU()
	var exc uint64
	for _, n := range c.ExcCounts {
		exc += n
	}
	fmt.Fprintf(&b, "insts=%d cycles=%d exceptions=%d fast=%d unix=%d\n",
		c.Insts, c.Cycles, exc, m.K.Stats.FastDeliveries, m.K.Stats.UnixDeliveries)
	if runErr != nil {
		fmt.Fprintf(&b, "run error: %s\n", runErr)
	} else {
		b.WriteString("exit: clean\n")
	}
	return b.String(), nil
}
