package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/series"
	"aomplib/internal/jgf/sor"
)

// These tests validate the -trace artifact contract: running a JGF
// benchmark under traceRun (exactly what `jgfbench -only Series -trace
// out.json` does) must produce Chrome trace-event JSON with correctly
// nested phase slices, one track per team worker, and — for task-based
// workloads — matched task flow arrows.

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id"`
	Args map[string]any `json:"args"`
}

func loadTrace(t *testing.T, path string) []traceEvent {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	return trace.TraceEvents
}

// checkPhaseNesting asserts every track's duration slices are properly
// nested: any two slices on one track are disjoint or one contains the
// other (what Perfetto requires to stack them).
func checkPhaseNesting(t *testing.T, evs []traceEvent) {
	t.Helper()
	const eps = 1e-6
	byTid := map[int][]traceEvent{}
	for _, ev := range evs {
		if ev.Ph == "X" {
			byTid[ev.Tid] = append(byTid[ev.Tid], ev)
		}
	}
	if len(byTid) == 0 {
		t.Fatal("trace has no duration slices")
	}
	for tid, spans := range byTid {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Ts != spans[j].Ts {
				return spans[i].Ts < spans[j].Ts
			}
			return spans[i].Dur > spans[j].Dur
		})
		var stack []traceEvent
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

// workerTracks counts thread_name metadata entries naming worker tracks.
func workerTracks(evs []traceEvent) int {
	n := 0
	for _, ev := range evs {
		if ev.Name == "thread_name" && ev.Ph == "M" {
			if name, _ := ev.Args["name"].(string); strings.HasPrefix(name, "worker ") {
				n++
			}
		}
	}
	return n
}

// matchedFlows counts flow arrows with both a start and a finish,
// splitting spawn arrows (even ids) from dependence-release arrows (odd).
func matchedFlows(evs []traceEvent) (spawn, dep int) {
	starts := map[uint64]bool{}
	for _, ev := range evs {
		if ev.Ph == "s" {
			starts[ev.ID] = true
		}
	}
	for _, ev := range evs {
		if ev.Ph == "f" && starts[ev.ID] {
			if ev.ID&1 == 0 {
				spawn++
			} else {
				dep++
			}
		}
	}
	return spawn, dep
}

func TestTraceSeriesChromeArtifact(t *testing.T) {
	const threads = 4
	path := filepath.Join(t.TempDir(), "out.json")
	err := traceRun(path, func() {
		m := harness.Rounds([]harness.Variant{
			{Version: harness.Aomp, Threads: threads, Inst: series.NewAomp(series.SizeTest, threads)}}, 1)[0]
		if m.Err != nil {
			t.Errorf("Series validation: %v", m.Err)
		}
	})
	if err != nil {
		t.Fatalf("traceRun: %v", err)
	}
	evs := loadTrace(t, path)
	checkPhaseNesting(t, evs)
	if got := workerTracks(evs); got < threads {
		t.Fatalf("trace has %d worker tracks, want >= %d (one per worker)", got, threads)
	}
	regions := 0
	for _, ev := range evs {
		if ev.Ph == "X" && ev.Cat == "region" {
			regions++
		}
	}
	if regions < threads {
		t.Fatalf("trace has %d region slices, want >= %d", regions, threads)
	}
}

func TestTraceTaskFlowArrows(t *testing.T) {
	const threads = 2
	path := filepath.Join(t.TempDir(), "out.json")
	err := traceRun(path, func() {
		// The dataflow SOR version spawns @Depend tasks — the workload that
		// must yield spawn→run flow arrows and dependence-release instants.
		m := harness.Rounds([]harness.Variant{
			{Version: harness.AompDep, Threads: threads, Inst: sor.NewAompDep(sor.SizeTest, threads)}}, 1)[0]
		if m.Err != nil {
			t.Errorf("SOR validation: %v", m.Err)
		}
	})
	if err != nil {
		t.Fatalf("traceRun: %v", err)
	}
	evs := loadTrace(t, path)
	checkPhaseNesting(t, evs)
	spawnArrows, depArrows := matchedFlows(evs)
	if spawnArrows == 0 {
		t.Fatal("no matched spawn flow arrows in a dataflow trace")
	}
	if depArrows == 0 {
		t.Fatal("no matched dependence-release flow arrows in a dataflow trace")
	}
	tasks := 0
	for _, ev := range evs {
		if ev.Ph == "X" && ev.Cat == "task" {
			tasks++
		}
	}
	if tasks == 0 {
		t.Fatal("no task slices in a dataflow trace")
	}
}
