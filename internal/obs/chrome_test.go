package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

// parsedEvent mirrors the subset of the Chrome trace-event fields the
// validations need.
type parsedEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id"`
	Args map[string]any `json:"args"`
}

type parsedTrace struct {
	TraceEvents     []parsedEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

func exportTrace(t *testing.T, c *collector, evs []Event) parsedTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, c, evs); err != nil {
		t.Fatalf("writeChromeTrace: %v", err)
	}
	var tr parsedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return tr
}

// checkNesting asserts that the "X" duration slices of every track are
// properly nested: any two slices on one track are either disjoint or one
// contains the other.
func checkNesting(t *testing.T, evs []parsedEvent) {
	t.Helper()
	const eps = 1e-6
	byTid := map[int][]parsedEvent{}
	for _, ev := range evs {
		if ev.Ph == "X" {
			byTid[ev.Tid] = append(byTid[ev.Tid], ev)
		}
	}
	for tid, spans := range byTid {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Ts != spans[j].Ts {
				return spans[i].Ts < spans[j].Ts
			}
			return spans[i].Dur > spans[j].Dur // ties: container first
		})
		var stack []parsedEvent
		for _, sp := range spans {
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= sp.Ts+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if sp.Ts+sp.Dur > top.Ts+top.Dur+eps {
					t.Fatalf("track %d: slice %q [%f,%f] partially overlaps %q [%f,%f]",
						tid, sp.Name, sp.Ts, sp.Ts+sp.Dur, top.Name, top.Ts, top.Ts+top.Dur)
				}
			}
			stack = append(stack, sp)
		}
	}
}

// A synthetic two-worker timeline with every record kind must export as
// valid JSON: named worker tracks, properly nested slices, and matched
// flow arrows for the task and its dependence release.
func TestChromeExportStructure(t *testing.T) {
	c := newCollector(256, 128)
	h := c.hooks()
	c.start()

	// at(n) is the boundary reading n µs into the trace.
	epoch := c.epoch.Load()
	at := func(us int64) int64 { return epoch + us*1000 }
	h.Work(0, 1, 0, at(3), at(4))
	h.TaskCreate(0, 42, TaskDependent, at(5))
	h.DepRelease(0, 42)
	h.StealSuccess(1, 42, 0)
	h.TaskRun(1, 42, at(5), at(6), at(7))
	h.Barrier(0, 1, at(8), at(10))
	h.Implicit(1, 1, 1, at(2), at(11))
	h.Implicit(0, 1, 1, at(2), at(12))
	h.Region(0, 1, 1, 2, LeaseHit, at(1), at(13))
	h.TeamRetire(1, 2)

	tr := exportTrace(t, c, c.stop())
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}

	names := map[string]bool{}
	var flowsS, flowsF []uint64
	xNames := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				names[ev.Args["name"].(string)] = true
			}
		case "s":
			flowsS = append(flowsS, ev.ID)
		case "f":
			flowsF = append(flowsF, ev.ID)
		case "X":
			xNames[ev.Name] = true
			if ev.Name == "region" && (ev.Args["size"] != float64(2) || ev.Args["lease"] != "pool hit") {
				t.Fatalf("region slice args %v, want size 2 and lease \"pool hit\"", ev.Args)
			}
		}
	}
	for _, want := range []string{"worker 0", "worker 1", "(outside regions)"} {
		if !names[want] {
			t.Fatalf("missing track %q (have %v)", want, names)
		}
	}
	for _, want := range []string{"region", "parallel L1", "for (staticBlock)", "barrier", "task 42"} {
		if !xNames[want] {
			t.Fatalf("missing slice %q (have %v)", want, xNames)
		}
	}
	var spawnArrow, depArrow bool
	for _, s := range flowsS {
		for _, f := range flowsF {
			if s == f {
				if s&1 == 0 {
					spawnArrow = true // spawn arrows use id task<<1
				} else {
					depArrow = true // release arrows use id task<<1|1
				}
			}
		}
	}
	if !spawnArrow {
		t.Fatalf("no matched spawn flow arrow: starts %v finishes %v", flowsS, flowsF)
	}
	if !depArrow {
		t.Fatalf("no matched dependence-release flow arrow: starts %v finishes %v", flowsS, flowsF)
	}
	checkNesting(t, tr.TraceEvents)
}

// A slice that began before StartTrace is exported from the trace start,
// and one that outlives the slice enclosing it on its track (two
// goroutines sharing one inherited worker context) is clipped to that
// slice's end.
func TestChromeExportClipsSlices(t *testing.T) {
	c := newCollector(64, 128)
	h := c.hooks()
	c.start()
	epoch := c.epoch.Load()
	at := func(us int64) int64 { return epoch + us*1000 }
	h.Implicit(0, 1, 1, at(-5), at(10))
	h.TaskRun(0, 7, 0, at(2), at(15))
	h.Barrier(0, 1, at(3), at(4))

	tr := exportTrace(t, c, c.stop())
	want := map[string][2]float64{"parallel L1": {0, 10}, "task 7": {2, 8}, "barrier": {3, 1}}
	x := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		x++
		if w, ok := want[ev.Name]; !ok || ev.Ts != w[0] || ev.Dur != w[1] {
			t.Errorf("slice %q at %v for %v µs, want %v", ev.Name, ev.Ts, ev.Dur, w)
		}
	}
	if x != len(want) {
		t.Fatalf("exported %d slices, want %d", x, len(want))
	}
	checkNesting(t, tr.TraceEvents)
}

// An empty trace must still be a valid, loadable file.
func TestChromeExportEmpty(t *testing.T) {
	c := newCollector(8, 128)
	tr := exportTrace(t, c, nil)
	if len(tr.TraceEvents) != 1 { // process_name metadata only
		t.Fatalf("empty trace has %d events, want 1", len(tr.TraceEvents))
	}
}
