package main

import (
	"runtime"
	"sync"
	"time"
)

// A shared host's speed drifts by tens of percent over minutes, and the
// drift moves every workload alike (README.md, "Host speed"). Each run
// therefore times a fixed integer loop — benchmark code, independent of
// uexc — between its measurement rounds, and reports its end-to-end
// host times at the reference speed refNominal: rates are multiplied
// and times divided by refNominal / measured speed. The raw values are
// printed too.

// refIters is one reference sample's loop length per worker, and
// refWords its table size: 1 MiB per worker, about the simulator's own
// per-worker working set, so the loop feels cache contention as the
// workloads do.
const (
	refIters = 5_000_000
	refWords = 1 << 17
)

// refTables are allocated once, so no sample pays for page faults.
var refTables [workers][]uint64

// refNominal is the reference speed, in samples per second, the
// end-to-end host times are reported at. It only sets the scale, and
// must never change: a new value would move every host-time metric.
const refNominal = 11

var refSink uint64

// refLoop runs the reference loop on every worker and returns its speed
// in samples per second: xorshift arithmetic with data-dependent
// branches and table updates.
func refLoop() float64 {
	for w := range refTables {
		if refTables[w] == nil {
			refTables[w] = make([]uint64, refWords)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tbl []uint64, x uint64) {
			defer wg.Done()
			const mask = refWords - 1
			for i := 0; i < refIters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				switch x & 3 {
				case 0:
					tbl[x&mask] += x
				case 1:
					tbl[(x>>8)&mask] ^= x
				default:
					x += tbl[(x>>16)&mask]
				}
			}
			mu.Lock()
			refSink += tbl[x&mask]
			mu.Unlock()
		}(refTables[w], uint64(w+1))
	}
	wg.Wait()
	return 1 / time.Since(start).Seconds()
}

// hostClock collects reference samples through a run.
type hostClock struct {
	samples []float64
	last    time.Time
}

// sample takes one reference sample after a full garbage collection, so
// the workload's leftover collection work does not land on the loop.
func (h *hostClock) sample() {
	runtime.GC()
	h.samples = append(h.samples, refLoop())
	h.last = time.Now()
}

// tick samples if half a second has passed since the last sample;
// workloads call it between measurement rounds.
func (h *hostClock) tick() {
	if time.Since(h.last) >= time.Second/2 {
		h.sample()
	}
}

// speed is the run's median reference speed relative to refNominal.
func (h *hostClock) speed() float64 { return median(h.samples) / refNominal }
