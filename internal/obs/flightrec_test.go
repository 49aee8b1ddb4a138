package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// snapshot must be non-destructive — the same records stay drainable —
// and trim must age records out by their When stamp.
func TestRingSnapshotAndTrim(t *testing.T) {
	r := newRing(16)
	for i := 1; i <= 10; i++ {
		r.append(Event{Kind: EvTaskCreate, Task: uint64(i), When: int64(i * 100)})
	}
	snap := r.snapshot()
	if len(snap) != 10 {
		t.Fatalf("snapshot returned %d records, want 10", len(snap))
	}
	if r.len() != 10 {
		t.Fatalf("snapshot consumed records: %d left, want 10", r.len())
	}
	again := r.snapshot()
	if len(again) != 10 || again[0].Task != 1 || again[9].Task != 10 {
		t.Fatalf("second snapshot differs: %+v", again)
	}

	// Trim by age: records with When < 500 go.
	r.trim(500, 0)
	if got := r.len(); got != 6 {
		t.Fatalf("after trim(500) %d records remain, want 6 (When 500..1000)", got)
	}
	if evs := r.snapshot(); evs[0].When != 500 {
		t.Fatalf("oldest surviving record has When=%d, want 500", evs[0].When)
	}

	// Trim by occupancy: keep at most 2 newest.
	r.trim(0, 2)
	if got := r.len(); got != 2 {
		t.Fatalf("after trim(maxLive=2) %d records remain, want 2", got)
	}
	if evs := r.drain(); evs[0].Task != 9 || evs[1].Task != 10 {
		t.Fatalf("occupancy trim kept the wrong records: %+v", evs)
	}
}

// The slow-region trigger must latch exactly when fork-to-join latency
// exceeds the threshold.
func TestFlightRegionLatencyTrigger(t *testing.T) {
	f := newFlightRecorder()
	f.latThreshNs.Store(int64(2 * time.Millisecond))
	h := f.hooks()
	f.col.start()

	// Fast region: no trigger.
	h.RegionFork(0, 1, 0, 2)
	h.RegionJoin(0, 1, 0)
	if f.triggered.Load() {
		t.Fatal("fast region tripped the latency trigger")
	}

	// Slow region: trigger latches and the wakeup lands on triggerC.
	h.RegionFork(0, 2, 0, 2)
	time.Sleep(5 * time.Millisecond)
	h.RegionJoin(0, 2, 0)
	if !f.triggered.Load() {
		t.Fatal("slow region did not trip the latency trigger")
	}
	select {
	case <-f.triggerC:
	default:
		t.Fatal("trigger did not wake the trimmer channel")
	}

	// The capture path renders valid Chrome JSON with the recorded events.
	snap := f.snapshotWindow()
	if len(snap) == 0 {
		t.Fatal("flight rings recorded nothing")
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, f.col, snap); err != nil {
		t.Fatalf("writeChromeTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("flight snapshot is not valid JSON")
	}
	if !strings.Contains(buf.String(), "region fork") {
		t.Fatalf("flight snapshot lost the region events:\n%s", buf.String())
	}
}

// A burst of admission rejects inside one second must trip the spike
// trigger; sparse rejects must not.
func TestFlightRejectSpikeTrigger(t *testing.T) {
	f := newFlightRecorder()
	f.rejectSpike.Store(5)
	h := f.hooks()
	f.col.start()

	for i := 0; i < 4; i++ {
		h.AdmitReject(1, AdmitReasonPolicy)
	}
	if f.triggered.Load() {
		t.Fatal("4 rejects tripped a 5/s spike trigger")
	}
	h.AdmitReject(1, AdmitReasonPolicy)
	if !f.triggered.Load() {
		t.Fatal("5th reject in the same second did not trip the trigger")
	}
}

// The public lifecycle: enable, run events through the published hook
// table, trip a trigger, read the frozen capture via WriteFlightSnapshot
// (which re-arms), and verify the live-window path afterwards.
func TestFlightRecorderEndToEnd(t *testing.T) {
	if FlightEnabled() {
		t.Fatal("flight recorder unexpectedly enabled at test start")
	}
	EnableFlight(true)
	defer EnableFlight(false)
	SetFlightWindow(2 * time.Second)
	prevThresh := SetFlightRegionLatencyThreshold(time.Millisecond)
	defer SetFlightRegionLatencyThreshold(prevThresh)

	h := Active()
	if h == nil {
		t.Fatal("no active hook table with the flight recorder enabled")
	}
	h.RegionFork(0, 901, 0, 2)
	h.ImplicitBegin(1, 901, 0)
	h.ImplicitEnd(1, 901)
	time.Sleep(3 * time.Millisecond)
	h.RegionJoin(0, 901, 0)

	if !FlightTriggered() {
		t.Fatal("slow region did not trigger the enabled recorder")
	}
	// The capture happens in the trimmer goroutine; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	var buf bytes.Buffer
	for {
		buf.Reset()
		triggered, err := WriteFlightSnapshot(&buf)
		if err != nil {
			t.Fatalf("WriteFlightSnapshot: %v", err)
		}
		if triggered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trigger capture never materialized")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("triggered flight snapshot is not valid JSON")
	}
	if !strings.Contains(buf.String(), "worker 1") {
		t.Fatalf("flight snapshot lost the worker track:\n%s", buf.String())
	}
	if FlightTriggered() {
		t.Fatal("WriteFlightSnapshot did not re-arm the trigger")
	}

	// Live-window path: no trigger pending, snapshot the current rings.
	h.RegionFork(0, 902, 0, 2)
	h.RegionJoin(0, 902, 0)
	buf.Reset()
	triggered, err := WriteFlightSnapshot(&buf)
	if err != nil || triggered {
		t.Fatalf("live snapshot: triggered=%v err=%v", triggered, err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("live flight snapshot is not valid JSON")
	}
}

// The trimmer must age events out of the rings so the recorder's memory
// reflects the window, not the uptime.
func TestFlightWindowTrimsOldEvents(t *testing.T) {
	f := newFlightRecorder()
	f.windowNs.Store(int64(10 * time.Millisecond))
	h := f.hooks()
	f.col.start()

	h.TaskCreate(0, 1, TaskDeferred)
	time.Sleep(20 * time.Millisecond)
	// Manual trim (what the goroutine tick does).
	cutoff := f.col.now() - f.windowNs.Load()
	for _, r := range *f.col.rings.Load() {
		r.trim(cutoff, 0)
	}
	h.TaskCreate(0, 2, TaskDeferred)
	snap := f.snapshotWindow()
	if len(snap) != 1 || snap[0].Task != 2 {
		t.Fatalf("window kept stale events: %+v", snap)
	}
}

// The tracer records a timeline and never counts: installed alone, it
// leaves the counter-only hooks nil, so their emit points stay one
// predicted branch. The flight recorder, which reuses the tracer's
// collector, adds only its own reject-spike trigger.
func TestTracerRecordsNeverCounts(t *testing.T) {
	prevTool := SetHooks(nil)
	defer SetHooks(prevTool)
	prevMetrics := EnableMetrics(false)
	defer EnableMetrics(prevMetrics)

	counterOnly := func(h *Hooks) map[string]bool {
		return map[string]bool{
			"StealAttempt": h.StealAttempt != nil,
			"StealScan":    h.StealScan != nil,
			"AdmitGrant":   h.AdmitGrant != nil,
			"AdmitReject":  h.AdmitReject != nil,
		}
	}
	EnableTracing(true)
	for name, set := range counterOnly(Active()) {
		if set {
			t.Errorf("tracer alone installs %s", name)
		}
	}
	EnableTracing(false)

	EnableFlight(true)
	defer EnableFlight(false)
	for name, set := range counterOnly(Active()) {
		if set != (name == "AdmitReject") {
			t.Errorf("flight recorder alone: %s installed = %v", name, set)
		}
	}
}
