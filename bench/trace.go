package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Req groups the spans of one request
// (a seed, a job); Parent is the ID of the enclosing span, 0 for none.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Req      string `json:"req,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s Span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, layer, name, req string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Layer: layer, Workload: t.workload, Req: req,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// open starts a span that end closes, so children can name it as
// their parent while it runs.
func (t *tracer) open(parent int, layer, name, req string) int {
	now := time.Now()
	return t.add(parent, layer, name, req, now, now)
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// time runs fn inside a span.
func (t *tracer) time(parent int, layer, name, req string, fn func()) {
	start := time.Now()
	fn()
	t.add(parent, layer, name, req, start, time.Now())
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations, in ms, of every span with the given
// layer and name.
func (t *tracer) durations(layer, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTime returns each layer's self time: the span durations minus the
// part of each span that its children cover.
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]Span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Layer] += s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent span.
func covered(p Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total, curLo, curHi int64
	open := false
	for _, k := range kids {
		lo, hi := max(k.StartNS, p.StartNS), min(k.EndNS, p.EndNS)
		if hi <= lo {
			continue
		}
		if open && lo <= curHi {
			curHi = max(curHi, hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = lo, hi, true
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// printSelfTime writes one `selftime <layer> <ms> ms` line per layer.
func (t *tracer) printSelfTime(w io.Writer) {
	self := t.selfTime()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "selftime %s %.3f ms\n", l, ms(self[l]))
	}
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
