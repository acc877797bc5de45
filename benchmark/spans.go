package main

import "time"

// span is one timed interval at a layer boundary. Start and End are seconds
// since the measuring process started; Parent is the ID of the span that
// caused this one (0 for a root) and Check groups the spans of one check.
// A layer's self time is its span's duration minus the part of it its
// child spans cover.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Check  int     `json:"check"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, check int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Check: check, Name: name,
		Start: time.Since(t.t0).Seconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// add records a span whose extent is already known.
func (t *tracer) add(name string, parent, check int, from, to time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Check: check, Name: name,
		Start: from.Sub(t.t0).Seconds(), End: to.Sub(t.t0).Seconds()})
}
