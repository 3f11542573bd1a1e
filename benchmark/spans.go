package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"fastmatch"
)

// span is one timed region of the traced run. The benchmark records one
// around every public call it makes; span trees the engine and the
// server return are attached beneath those, converted to the same form.
// Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a root span
	Op     int64  `json:"op"`               // shared by every span of one op
	Name   string `json:"name"`
	Source string `json:"source"` // "bench", "engine" or "server"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextID int64
	nextOp int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp allocates an op id.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

// add records a finished span and returns its id.
func (r *recorder) add(op, parent int64, name, source string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.spans = append(r.spans, span{
		ID: r.nextID, Parent: parent, Op: op, Name: name, Source: source,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return r.nextID
}

// attach converts a returned span tree (engine Options.Trace or the
// server's "trace" field) and records it beneath parent.
func (r *recorder) attach(op, parent int64, source string, snap *fastmatch.TraceSnapshot) {
	if r == nil || snap == nil {
		return
	}
	var walk func(parent int64, spans []fastmatch.TraceSpan)
	walk = func(parent int64, spans []fastmatch.TraceSpan) {
		for _, s := range spans {
			start := snap.StartTime.Add(time.Duration(s.StartNS))
			id := r.add(op, parent, s.Name, source, start, start.Add(time.Duration(s.DurationNS)))
			walk(id, s.Children)
		}
	}
	walk(parent, snap.Spans)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes every recorded span as one JSON document.
func (r *recorder) writeFile(path string) error {
	b, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{r.epoch, r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers; the
// intervals may overlap each other and stick out of the window.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	started := false
	for _, iv := range clipped {
		switch {
		case !started:
			curLo, curHi, started = iv.lo, iv.hi, true
		case iv.lo <= curHi:
			curHi = max(curHi, iv.hi)
		default:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// selfTimes maps every span id to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (parallel workers, concurrent shard calls) count once.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}
