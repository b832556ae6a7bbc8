package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Name is "<layer>.<call>"; Parent is the span
// that caused it (0 for a root); Req ties together the spans of one
// oracled request (0 elsewhere). Start and End are nanoseconds since
// the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths pay one nil
// check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and start offset.
func (t *tracer) begin() (id int64, start int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	return id, int64(time.Since(t.t0))
}

// end records the span opened by begin.
func (t *tracer) end(id, parent, req int64, name string, start int64) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's wall time in seconds; it
// times fn even when t is nil.
func (t *tracer) do(name string, parent int64, fn func(id int64)) float64 {
	id, start := t.begin()
	t0 := time.Now()
	fn(id)
	wall := time.Since(t0).Seconds()
	t.end(id, parent, 0, name, start)
	return wall
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span id, its duration minus the part of
// its interval covered by its children (overlapping children count
// once). Children running concurrently with each other, as oracled
// request spans do, therefore never drive a parent's self time negative.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		cur, curEnd := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer, in seconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.layer()] += float64(self[s.ID]) / 1e9
	}
	return out
}
