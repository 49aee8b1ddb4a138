package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"aomplib/internal/sched"
)

// Chrome trace-event export: the drain pass converts the fixed-size ring
// records into the Trace Event Format understood by Perfetto
// (ui.perfetto.dev) and chrome://tracing. Layout:
//
//   - one track (tid) per worker, named "worker N", plus a shared track
//     for events emitted outside any worker context;
//   - each slice record (region, implicit task, work-sharing share, task
//     run, barrier wait) becomes one "X" duration slice;
//   - task spawn→run and dependence release→run become flow arrows;
//   - team retires, steals and inline tasks become instants.
//
// Slices are written when they end, so nesting comes from their times:
// per track they are sorted by start, and a slice that outlives the slice
// enclosing it — two goroutines that inherited one worker context emit
// on one track — is clipped to that slice's end. The export runs entirely
// off the hot path, after StopTrace has drained the rings.

const chromePid = 1

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of the trace file.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// trackID maps a worker to its Chrome thread id (tids must be positive;
// the NoWorker track gets tid 1, worker N gets tid N+2).
func trackID(w WorkerID) int { return int(w) + 2 }

func trackName(w WorkerID) string {
	if w == NoWorker {
		return "(outside regions)"
	}
	return fmt.Sprintf("worker %d", w)
}

// usec converts trace nanoseconds to the microsecond float ts Chrome uses.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// writeChromeTrace converts drained records to trace JSON; c contributes
// the stats snapshot.
func writeChromeTrace(w io.Writer, c *collector, events []Event) error {
	byTrack := map[WorkerID][]Event{}
	for _, ev := range events {
		byTrack[ev.Worker] = append(byTrack[ev.Worker], ev)
	}

	// Flow endpoints: a task's run slice anchors the arrow heads for its
	// spawn and (if any) dependence-release arrows; arrows are emitted
	// only when both ends exist in the trace. Flow ids share the task id
	// space: spawn arrows use task<<1, release arrows task<<1|1.
	ran := map[uint64]bool{}
	released := map[uint64]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case EvTaskRun:
			ran[ev.Task] = true
		case EvDepRelease:
			released[ev.Task] = true
		}
	}

	var out []chromeEvent
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid,
		Args: map[string]any{"name": "aomplib runtime"},
	})

	var tracks []WorkerID
	for w := range byTrack {
		tracks = append(tracks, w)
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })

	for _, tr := range tracks {
		tid := trackID(tr)
		out = append(out,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
				Args: map[string]any{"name": trackName(tr)}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: chromePid, Tid: tid,
				Args: map[string]any{"sort_index": tid}})

		// By start, and at equal starts the longer first, so a slice
		// follows every slice that encloses it.
		evs := byTrack[tr]
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].When > evs[j].When
		})

		// ends holds the ends of the slices enclosing the current one.
		// Times are integer nanoseconds until the slice is emitted, so a
		// clipped slice cannot leak past its parent through float rounding.
		var ends []int64
		slice := func(ev Event, name, cat string, args map[string]any) chromeEvent {
			start := max(ev.Start, 0) // began before StartTrace
			for len(ends) > 0 && ends[len(ends)-1] <= start {
				ends = ends[:len(ends)-1]
			}
			end := max(ev.When, start)
			if len(ends) > 0 {
				end = min(end, ends[len(ends)-1])
			}
			ends = append(ends, end)
			out = append(out, chromeEvent{Name: name, Cat: cat, Ph: "X", Ts: usec(start),
				Dur: usec(end - start), Pid: chromePid, Tid: tid, Args: args})
			return out[len(out)-1]
		}
		instant := func(name, cat string, ts int64, args map[string]any) {
			out = append(out, chromeEvent{Name: name, Cat: cat, Ph: "i", S: "t",
				Ts: usec(max(ts, 0)), Pid: chromePid, Tid: tid, Args: args})
		}
		flow := func(name, cat, ph string, ts float64, id uint64) {
			ev := chromeEvent{Name: name, Cat: cat, Ph: ph, Ts: ts, Pid: chromePid, Tid: tid, ID: id}
			if ph == "f" {
				ev.BP = "e" // the arrow head binds to the enclosing slice
			}
			out = append(out, ev)
		}

		for _, ev := range evs {
			switch ev.Kind {
			case EvRegion:
				slice(ev, "region", "region", map[string]any{"team": ev.Team, "size": uint32(ev.Arg),
					"level": ev.Level, "lease": LeaseKind(ev.Arg >> 32).String()})
			case EvImplicit:
				slice(ev, fmt.Sprintf("parallel L%d", ev.Level), "region",
					map[string]any{"team": ev.Team, "level": ev.Level})
			case EvWork:
				slice(ev, "for ("+sched.Kind(ev.Arg).String()+")", "work", nil)
			case EvBarrier:
				slice(ev, "barrier", "barrier", map[string]any{"team": ev.Team})
			case EvTaskRun:
				s := slice(ev, fmt.Sprintf("task %d", ev.Task), "task", map[string]any{"task": ev.Task})
				flow("spawn", "taskflow", "f", s.Ts, ev.Task<<1)
				if released[ev.Task] {
					flow("dep release", "depflow", "f", s.Ts, ev.Task<<1|1)
				}
			case EvTaskCreate:
				instant("spawn", "task", ev.When, map[string]any{"task": ev.Task, "kind": TaskKind(ev.Arg).String()})
				if ran[ev.Task] {
					flow("spawn", "taskflow", "s", usec(max(ev.When, 0)), ev.Task<<1)
				}
			case EvDepRelease:
				instant("dep release", "dep", ev.When, map[string]any{"task": ev.Task})
				if ran[ev.Task] {
					flow("dep release", "depflow", "s", usec(max(ev.When, 0)), ev.Task<<1|1)
				}
			case EvTeamRetire:
				instant("team retire", "pool", ev.When, map[string]any{"team": ev.Team})
			case EvStealSuccess:
				instant("steal", "steal", ev.When, map[string]any{"task": ev.Task, "victim": int32(uint32(ev.Arg))})
			case EvTaskInline:
				instant("inline task", "task", ev.When, map[string]any{"task": ev.Task})
			}
		}
	}

	st := c.stats()
	trace := chromeTrace{
		TraceEvents:     out,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"tool":            "aomplib tracer",
			"events_recorded": st.EventsRecorded,
			"events_dropped":  st.EventsDropped,
			"tracks":          len(tracks),
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// String names a TaskKind for trace args.
func (k TaskKind) String() string {
	switch k {
	case TaskDeferred:
		return "deferred"
	case TaskFuture:
		return "future"
	case TaskDependent:
		return "dependent"
	case TaskFutureDependent:
		return "future+dependent"
	}
	return "unknown"
}

// String names a LeaseKind for trace args.
func (k LeaseKind) String() string {
	switch k {
	case LeaseCold:
		return "cold"
	case LeaseHit:
		return "pool hit"
	case LeaseSolo:
		return "solo"
	case LeaseBypass:
		return "bypass"
	}
	return "unknown"
}
