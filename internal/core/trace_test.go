package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aomplib/internal/obs"
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

	obs.StartTrace()
	defer obs.EnableTracing(false)
	region()
	var buf bytes.Buffer
	if err := obs.StopTrace(&buf); err != nil {
		t.Fatalf("StopTrace: %v", err)
	}
	spans := countSpans(t, buf.Bytes(), "Demo.run")
	if spans != 2 {
		t.Fatalf("got %d Demo.run slices, want 2 (one per worker)", spans)
	}

	// Unplugged, the aspect leaves no instrumentation behind.
	p.Unweave()
	obs.StartTrace()
	region()
	buf.Reset()
	if err := obs.StopTrace(&buf); err != nil {
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
