package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aomplib/internal/weaver"
)

// TraceSpans woven over a region method must emit one named slice per
// worker (the aspect runs inside the parallel advice), and unweaving must
// remove the instrumentation like any other aspect.
func TestTraceSpansAspect(t *testing.T) {
	p := weaver.NewProgram("t")
	var ran int32
	work := p.Class("Demo").Proc("work", func() { ran++ })
	region := p.Class("Demo").Proc("run", func() { work() })
	_ = region
	p.Use(ParallelRegion("call(* Demo.run(..))").Threads(2))
	p.Use(TraceSpans("call(* Demo.run(..))"))
	p.MustWeave()

	StartTrace()
	defer EnableTracing(false)
	region()
	var buf bytes.Buffer
	if err := StopTrace(&buf); err != nil {
		t.Fatalf("StopTrace: %v", err)
	}
	spans := countSpans(t, buf.Bytes(), "Demo.run")
	if spans != 2 {
		t.Fatalf("got %d Demo.run slices, want 2 (one per worker)", spans)
	}

	// Unplugged, the aspect leaves no instrumentation behind.
	p.Unweave()
	StartTrace()
	region()
	buf.Reset()
	if err := StopTrace(&buf); err != nil {
		t.Fatalf("StopTrace: %v", err)
	}
	if got := countSpans(t, buf.Bytes(), "Demo.run"); got != 0 {
		t.Fatalf("unwoven program still emitted %d spans", got)
	}
}

// countSpans parses a Chrome trace and counts "X" slices with the name.
func countSpans(t *testing.T, data []byte, name string) int {
	t.Helper()
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	n := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && strings.Contains(ev.Name, name) {
			n++
		}
	}
	return n
}

// ReadRuntimeStats gathers tracer ring accounting with pool counters.
func TestRuntimeSnapshotAggregates(t *testing.T) {
	StartTrace()
	defer EnableTracing(false)
	before := ReadRuntimeStats()
	p := weaver.NewProgram("t")
	region := p.Class("Demo").Proc("run", func() {})
	p.Use(ParallelRegion("call(* Demo.run(..))").Threads(2))
	p.MustWeave()
	region()
	st := ReadRuntimeStats()
	if st.Trace.EventsRecorded <= before.Trace.EventsRecorded {
		t.Fatalf("Trace.EventsRecorded did not advance: %d -> %d",
			before.Trace.EventsRecorded, st.Trace.EventsRecorded)
	}
	if st.Pool.Leases <= before.Pool.Leases {
		t.Fatalf("Pool.Leases did not advance: %d -> %d", before.Pool.Leases, st.Pool.Leases)
	}
}
