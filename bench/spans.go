package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer's public functions; nothing inside the library is
// instrumented. A span is (name, start, end, parent, sample): the sample
// id ties every span of one timed sample together, the parent is the span
// that was open on the same track when this one began.

type span struct {
	Name       string
	Start, End int64 // ns since the tracer's origin
	ID, Parent int32 // Parent is 0 for a root
	Sample     int32
	Track      int32
}

// maxSpansPerTrack bounds the trace file: a traced reweave-live run would
// record a million script ops (150 MB of JSON). A track stores its first
// 50 000 spans; the rest are counted as dropped, not stored.
const maxSpansPerTrack = 50_000

// tracer owns the tracks of one run. Recording is switched per round (the
// traced run alternates traced and untraced rounds to price its own
// overhead), only ever while no span is open.
type tracer struct {
	origin  time.Time
	on      atomic.Bool
	nextID  atomic.Int32
	sample  atomic.Int32
	dropped atomic.Int64

	mu     sync.Mutex
	tracks []*track
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// track is one goroutine's span stack. A nil *track records nothing, which
// is how untraced runs call the same code.
type track struct {
	tr    *tracer
	id    int32
	spans []span
	open  []int // indices into spans
}

// newTrack registers a track; nil tracers hand out nil tracks.
func (t *tracer) newTrack() *track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := &track{tr: t, id: int32(len(t.tracks) + 1)}
	t.tracks = append(t.tracks, k)
	return k
}

func (k *track) begin(name string) {
	if k == nil || !k.tr.on.Load() {
		return
	}
	if len(k.spans) >= maxSpansPerTrack {
		k.tr.dropped.Add(1)
		k.open = append(k.open, -1)
		return
	}
	var parent int32
	if n := len(k.open); n > 0 && k.open[n-1] >= 0 {
		parent = k.spans[k.open[n-1]].ID
	}
	k.spans = append(k.spans, span{
		Name: name, Start: int64(time.Since(k.tr.origin)),
		ID: k.tr.nextID.Add(1), Parent: parent,
		Sample: k.tr.sample.Load(), Track: k.id,
	})
	k.open = append(k.open, len(k.spans)-1)
}

func (k *track) end() {
	if k == nil || len(k.open) == 0 {
		return
	}
	i := k.open[len(k.open)-1]
	k.open = k.open[:len(k.open)-1]
	if i >= 0 {
		k.spans[i].End = int64(time.Since(k.tr.origin))
	}
}

// do runs fn inside a span.
func (k *track) do(name string, fn func()) {
	k.begin(name)
	fn()
	k.end()
}

// all returns every closed span of every track, ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, k := range t.tracks {
		for _, s := range k.spans {
			if s.End >= s.Start && s.End != 0 {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, per span name, the summed self time in ns: a span's
// duration minus the part its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - children[s.ID]
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable at ui.perfetto.dev or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace JSON under dir and returns
// the path. counters are attached to the root metadata event so the
// runtime counts read around the traced rounds travel with the trace.
func writeChrome(dir, name string, spans []span, counters map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	events := make([]chromeEvent, 0, len(spans)+1)
	events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "bench " + name, "counters": counters}})
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "sample": s.Sample},
		})
	}
	path := filepath.Join(dir, name+".trace.json")
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
