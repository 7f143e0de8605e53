package main

import (
	"time"
)

// span is one timed call into a layer. Spans of one commit share its batch
// id; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Batch   int32  `json:"batch"`
}

// tracer records spans in memory. The in-process replay is one goroutine
// deep at every layer boundary it wraps (Durable.Commit calls the log
// hook, the apply hook and the engines on the caller's goroutine), so a
// stack of open spans gives every span its parent.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	batch int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), batch: -1} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Batch: t.batch})
	t.open = append(t.open, id)
	t.spans[id].StartNS = int64(time.Since(t.epoch))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	now := int64(time.Since(t.epoch))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("perf: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNS = now
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// selfTimes returns, per span, its duration minus the part its children
// cover. Children of one span never overlap here (one goroutine), so the
// covered part is the sum of their durations.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}
