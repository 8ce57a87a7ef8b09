package main

import "time"

// span is one timed interval of the traced run: a rung of the ladder,
// or one batch of calls into a layer with the number of calls (or items)
// it covered. Spans are kept in memory and written with the result.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

// tracer records spans from one goroutine. A nil tracer records
// nothing, which is how the untraced comparison runs the same loops.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id with its count.
func (t *tracer) end(id int, count int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Count = count
}

// batches runs fn over [0, n) in chunks of size, one span named name
// per chunk under parent. fn handles items [lo, hi) and returns how many
// calls it made. It returns the summed chunk time and call count; a nil
// tracer runs the same chunks untimed and returns no time.
func (t *tracer) batches(parent int, name string, n, size int, fn func(lo, hi int) int64) (time.Duration, int64) {
	var total time.Duration
	var calls int64
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		if t == nil {
			calls += fn(lo, hi)
			continue
		}
		id := t.begin(name, parent)
		start := time.Now()
		c := fn(lo, hi)
		total += time.Since(start)
		t.end(id, c)
		calls += c
	}
	return total, calls
}

// timed runs fn as one span and returns its duration.
func (t *tracer) timed(parent int, name string, fn func() int64) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	c := fn()
	d := time.Since(start)
	t.end(id, c)
	return d
}

// nsPer is a per-call cost in nanoseconds.
func nsPer(d time.Duration, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}
