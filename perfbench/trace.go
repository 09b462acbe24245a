package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent is 0 for a root.
// Spans of one request share its root, which is the request's identifier.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// cost is the time spent inside start and end, the client-side price of
	// tracing.
	cost time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since() float64 { return float64(time.Since(t.epoch).Nanoseconds()) / 1e3 }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.since(), End: -1})
	t.cost += time.Since(t0)
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.since()
	t.cost += time.Since(t0)
}

// layerTime is a span name's total self time and call count.
type layerTime struct {
	Calls  int     `json:"calls"`
	SelfUS float64 `json:"self_us"`
	WallUS float64 `json:"wall_us"`
}

// meanSelfMS is the mean self time per call in milliseconds (0 without calls).
func (l layerTime) meanSelfMS() float64 {
	if l.Calls == 0 {
		return 0
	}
	return l.SelfUS / 1e3 / float64(l.Calls)
}

// selfTimes gives each span name its self time: a span's duration minus the
// part of its interval covered by its children (overlapping children count
// once). Unclosed spans are ignored.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		wall := s.End - s.Start
		lt := out[s.Name]
		lt.Calls++
		lt.WallUS += wall
		lt.SelfUS += wall - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total float64
	curStart, curEnd := 0.0, -1.0
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b <= a {
			continue
		}
		if a > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = a, b
			continue
		}
		curEnd = max(curEnd, b)
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}
