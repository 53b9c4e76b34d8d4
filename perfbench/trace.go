package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job; Parent
// is the index of the enclosing span (-1 for a job's root).
type span struct {
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Self   float64 `json:"self_ms"`
}

// iterSample is one sampled point of a job's MMSIM dz trajectory.
type iterSample struct {
	Job string  `json:"job"`
	K   int     `json:"k"`
	DZ  float64 `json:"dz"`
	At  float64 `json:"at_ms"`
}

// tracer keeps spans in memory and writes them out when the run ends. It is
// goroutine-safe: window solves report iterations from several goroutines.
// A disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	iters []iterSample
}

// iterSampleEvery is the stride of the recorded dz trajectory.
const iterSampleEvery = 50

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e6 }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil || !t.on {
		return -1
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span i and returns its duration in seconds.
func (t *tracer) end(i int) float64 {
	if i < 0 {
		return 0
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return (now - t.spans[i].Start) / 1e3
}

// add records a span whose times were measured by the caller.
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	if t == nil || !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: t.ms(start), End: t.ms(end)})
	return len(t.spans) - 1
}

// iter samples the dz trajectory of job at iteration k.
func (t *tracer) iter(job string, k int, dz float64) {
	if t == nil || !t.on || k%iterSampleEvery != 0 {
		return
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	t.iters = append(t.iters, iterSample{Job: job, K: k, DZ: dz, At: now})
	t.mu.Unlock()
}

// selfTimes fills each span's self time: its duration minus the part of
// that interval its children cover.
func (t *tracer) selfTimes() {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write stores the spans and the dz trajectory as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"spans": t.spans, "iterations": t.iters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
