package main

// Spans: the benchmark's own record of timed calls into the layers. The
// modules under internal/ are not instrumented by this benchmark, so a
// layer's span is taken from outside, by calling the module's public
// entry point directly with the op's inputs right after the op ran end to
// end ("replay"). A replayed child therefore lies after its parent in
// time, not inside it; what it shares with a live child is its duration,
// and self time is defined on durations accordingly.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Parent is the ID of the span whose time this
// call is part of: 0 for an op's root, probeSpan for a measurement that
// belongs to no op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"` // position of the op in the workload's sequence
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

const probeSpan = -1

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans in memory; they are written out when the run
// ends. Children replayed concurrently (unity's scatter-gather) record
// concurrently, hence the lock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// measure times fn as a span and returns the span's ID, for the replays
// of its children to name as their parent.
func (tr *tracer) measure(name string, parent, op int, fn func()) int {
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	tr.mu.Unlock()
	start := time.Since(tr.t0)
	fn()
	end := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans[id-1].Start, tr.spans[id-1].End = int64(start), int64(end)
	tr.mu.Unlock()
	return id
}

// writeTo writes the spans as one JSON object per line.
func (tr *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the length
// of the union of its direct children's intervals, never below zero.
// Taking the union means children that ran concurrently are not
// subtracted twice; grandchildren only count through their parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = max(0, s.dur()-unionLen(children[s.ID]))
	}
	return out
}

// unionLen is the total length covered by the spans' intervals.
func unionLen(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return time.Duration(total)
}
