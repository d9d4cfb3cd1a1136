package main

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// traceSlice is the length of the alternating slices a traced run splits
// its window into: spans are kept for edits scheduled in odd slices only,
// so the even slices of the same run give the untraced baseline that
// trace.overhead_p50_pct compares against.
const traceSlice = 250e6 // ns

// tracer holds a traced run's spans and per-layer samples in memory until
// the run ends. A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	winStart, winEnd atomic.Int64 // the measured window, ns since bench start
	nextID           atomic.Int32

	mu      sync.Mutex
	spans   []span
	samples map[string]dist
	counts  map[string]float64
}

// span is one timed step. Spans of one edit or join share Trace; Parent
// links a step to the step that caused it (-1 for a root).
type span struct {
	Trace   string `json:"trace"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	Replica string `json:"replica,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{samples: make(map[string]dist), counts: make(map[string]float64)}
}

func (t *tracer) setWindow(start, end int64) {
	if t == nil {
		return
	}
	t.winStart.Store(start)
	t.winEnd.Store(end)
}

// on reports whether instant now lies in a traced slice of the window.
func (t *tracer) on(now int64) bool {
	if t == nil {
		return false
	}
	s := t.winStart.Load()
	if s == 0 || now < s || now >= t.winEnd.Load() {
		return false
	}
	return (now-s)/traceSlice%2 == 1
}

func (t *tracer) newID() int32 { return t.nextID.Add(1) }

func (t *tracer) span(trace, name, replica string, parent int32, start, end int64) {
	t.spanID(t.newID(), trace, name, replica, parent, start, end)
}

func (t *tracer) spanID(id int32, trace, name, replica string, parent int32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{trace, id, parent, name, replica, start, end})
	t.mu.Unlock()
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) count(name string, d float64) {
	t.mu.Lock()
	t.counts[name] += d
	t.mu.Unlock()
}

func (t *tracer) dist(name string) dist {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.samples[name]
}

func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// byTrace groups the spans of each edit or join.
func (t *tracer) byTrace() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range t.spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// us and ms convert nanosecond intervals.
func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }
