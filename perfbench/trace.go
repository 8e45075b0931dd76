package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span
// that caused it (0 for a root); Job ties the spans of one daemon job
// together.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_s"` // since the tracer was created
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the timed paths are the
// same code with and without tracing.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	next   int
	record time.Duration // time spent inside the tracer itself
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID, to be passed to end. parent
// is 0 for a root span.
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: now.Sub(t.t0).Seconds(), End: -1})
	t.record += time.Since(now)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.t0).Seconds()
	t.record += time.Since(now)
	t.mu.Unlock()
}

// add records a span whose interval was measured by the caller, for
// intervals observed from outside, such as a job's queue wait.
func (t *tracer) add(name string, parent int, job string, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.begin(name, parent, job)
	t.mu.Lock()
	t.spans[id-1].Start = start.Sub(t.t0).Seconds()
	t.spans[id-1].End = end.Sub(t.t0).Seconds()
	t.mu.Unlock()
}

// setJob tags an open span with the job it turned out to belong to, for
// spans opened before the daemon assigned the job its ID.
func (t *tracer) setJob(id int, job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Job = job
	t.mu.Unlock()
}

func (t *tracer) recordTime() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.record
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}
