package obs

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: a continuously recording, bounded trace of the last few
// seconds. Where StartTrace/StopTrace capture a deliberate window, the
// flight recorder runs always-on once enabled, reusing the per-worker ring
// machinery with a background trimmer that ages records out of a sliding
// window — memory stays bounded by ring capacity regardless of uptime.
// When a trigger fires (a parallel region slower than a settable
// threshold, or a spike of admission rejections), the current window is
// snapshotted off the hot path into a frozen capture that
// WriteFlightSnapshot renders as Chrome trace JSON: the moments *leading
// up to* the anomaly, which an after-the-fact StartTrace can never show.

// flightRingCapacity sizes the recorder's per-worker rings. Smaller than
// the tracer's: the window trimmer keeps occupancy low, and the recorder
// is meant to stay enabled in production.
const flightRingCapacity = 1 << 12

// defaultFlightWindow is the record-retention window until
// SetFlightWindow overrides it.
const defaultFlightWindow = 5 * time.Second

// flightRecorder owns a private collector (its rings never mix with the
// tracer's) plus the trigger and trimmer state.
type flightRecorder struct {
	col *collector

	windowNs    atomic.Int64  // retention window
	latThreshNs atomic.Int64  // region-latency trigger; 0 disables
	rejectSpike atomic.Int64  // admission rejects per second to trigger; 0 disables
	rejectEpoch atomic.Int64  // current 1s epoch of the spike counter
	rejectCount atomic.Int64  // rejects observed in rejectEpoch
	triggered   atomic.Bool   // a trigger fired and its capture is pending/held
	triggerCnt  atomic.Uint64 // total triggers since the recorder was created

	// regionTimes pairs fork to join for the latency trigger — same lossy
	// table the metrics registry uses, private so the two never steal each
	// other's entries.
	regionTimes *pairTable

	// triggerC wakes the trimmer goroutine to capture immediately instead
	// of waiting out the tick. Capacity 1 + non-blocking send: the emit
	// path never parks.
	triggerC chan struct{}

	// capMu guards the frozen capture taken at trigger time.
	capMu      sync.Mutex
	capture    []Event
	captureWhy string

	// lifecycle of the trimmer goroutine.
	runMu sync.Mutex
	stopC chan struct{}
	doneC chan struct{}
}

func newFlightRecorder() *flightRecorder {
	f := &flightRecorder{
		col:         newCollector(flightRingCapacity, defaultMaxRings()),
		regionTimes: newPairTable(1024),
		triggerC:    make(chan struct{}, 1),
	}
	f.windowNs.Store(int64(defaultFlightWindow))
	return f
}

// trigger latches the trigger flag and wakes the trimmer to capture. The
// first trigger wins until WriteFlightSnapshot clears it — follow-on
// anomalies inside the same window do not re-snapshot over the evidence.
func (f *flightRecorder) trigger(why string) {
	f.triggerCnt.Add(1)
	if !f.triggered.CompareAndSwap(false, true) {
		return
	}
	f.capMu.Lock()
	f.captureWhy = why
	f.capMu.Unlock()
	select {
	case f.triggerC <- struct{}{}:
	default:
	}
}

// hooks wraps the private collector's recording hooks with the trigger
// probes: region fork/join pairing for the latency trigger and a per-second
// reject counter for the spike trigger (the collector records no admission
// events, so AdmitReject is the trigger alone).
func (f *flightRecorder) hooks() *Hooks {
	h := f.col.hooks()
	baseFork, baseJoin := h.RegionFork, h.RegionJoin
	h.RegionFork = func(master WorkerID, team uint64, level, size int) {
		baseFork(master, team, level, size)
		if f.latThreshNs.Load() > 0 {
			f.regionTimes.put(team, monotonicNs())
		}
	}
	h.RegionJoin = func(master WorkerID, team uint64, level int) {
		baseJoin(master, team, level)
		thresh := f.latThreshNs.Load()
		if thresh <= 0 {
			return
		}
		if t0, ok := f.regionTimes.take(team); ok && monotonicNs()-t0 > thresh {
			f.trigger("region latency over threshold")
		}
	}
	h.AdmitReject = func(tenant uint64, reason AdmitReason) {
		spike := f.rejectSpike.Load()
		if spike <= 0 {
			return
		}
		// Lossy 1s epoch counter: a rollover race can reset a concurrent
		// increment, undercounting by a few — fine for a spike detector.
		epoch := monotonicNs() / int64(time.Second)
		if e := f.rejectEpoch.Load(); e != epoch {
			if f.rejectEpoch.CompareAndSwap(e, epoch) {
				f.rejectCount.Store(0)
			}
		}
		if f.rejectCount.Add(1) >= spike {
			f.trigger("admission reject spike")
		}
	}
	return h
}

// snapshotWindow copies every ring's live records without consuming them,
// dropping records that aged past the window between trims.
func (f *flightRecorder) snapshotWindow() []Event {
	cutoff := f.col.now() - f.windowNs.Load()
	var out []Event
	for _, r := range *f.col.rings.Load() {
		for _, ev := range r.snapshot() {
			if ev.When >= cutoff {
				out = append(out, ev)
			}
		}
	}
	return out
}

// run is the trimmer goroutine: every quarter-window (clamped to
// [50ms, 1s]) it ages records out of the rings; on a trigger it freezes
// the window into the capture first, so the anomaly's lead-up survives
// any number of later trims.
func (f *flightRecorder) run(stopC, doneC chan struct{}) {
	defer close(doneC)
	interval := func() time.Duration {
		iv := time.Duration(f.windowNs.Load()) / 4
		if iv < 50*time.Millisecond {
			iv = 50 * time.Millisecond
		}
		if iv > time.Second {
			iv = time.Second
		}
		return iv
	}
	t := time.NewTimer(interval())
	defer t.Stop()
	for {
		select {
		case <-stopC:
			return
		case <-f.triggerC:
			snap := f.snapshotWindow()
			f.capMu.Lock()
			f.capture = snap
			f.capMu.Unlock()
		case <-t.C:
			cutoff := f.col.now() - f.windowNs.Load()
			for _, r := range *f.col.rings.Load() {
				r.trim(cutoff, 0)
			}
			t.Reset(interval())
		}
	}
}

// ------------------------------------------------------------ public API --

// flight is the process-wide recorder behind EnableFlight. Built lazily
// under installMu on first enable.
var flight *flightRecorder

// EnableFlight turns the flight recorder on or off and returns the
// previous setting. Enabled, the runtime's emit points continuously
// record into the recorder's private bounded rings; a background trimmer
// keeps only the last window (SetFlightWindow) and triggers — slow
// regions, admission reject spikes — freeze the window for
// WriteFlightSnapshot. The recorder composes with the tracer, the metrics
// registry and custom tools; its memory ceiling is rings x ring capacity,
// independent of uptime. Disabling stops recording and the trimmer but
// keeps any frozen capture readable.
func EnableFlight(on bool) bool {
	installMu.Lock()
	defer installMu.Unlock()
	prev := flightHooks != nil
	if on == prev {
		return prev
	}
	if on {
		if flight == nil {
			flight = newFlightRecorder()
		}
		flightHooks = flight.hooks()
		flight.col.start()
		flight.runMu.Lock()
		flight.stopC = make(chan struct{})
		flight.doneC = make(chan struct{})
		go flight.run(flight.stopC, flight.doneC)
		flight.runMu.Unlock()
	} else {
		flightHooks = nil
		flight.col.recording.Store(false)
		flight.runMu.Lock()
		close(flight.stopC)
		<-flight.doneC
		flight.runMu.Unlock()
	}
	rebuildActiveLocked()
	return prev
}

// FlightEnabled reports whether the flight recorder is recording.
func FlightEnabled() bool {
	installMu.Lock()
	defer installMu.Unlock()
	return flightHooks != nil
}

// SetFlightWindow sets the recorder's retention window — how far back
// WriteFlightSnapshot reaches — and returns the previous setting.
// Non-positive values are ignored. Records are also bounded by ring
// capacity, so a very long window on a very busy runtime retains less
// than asked.
func SetFlightWindow(d time.Duration) time.Duration {
	installMu.Lock()
	defer installMu.Unlock()
	if flight == nil {
		flight = newFlightRecorder()
	}
	prev := time.Duration(flight.windowNs.Load())
	if d > 0 {
		flight.windowNs.Store(int64(d))
	}
	return prev
}

// SetFlightRegionLatencyThreshold arms (or, with a non-positive value,
// disarms) the slow-region trigger: a parallel region whose fork-to-join
// latency exceeds d freezes the flight window. Returns the previous
// setting; zero means disarmed.
func SetFlightRegionLatencyThreshold(d time.Duration) time.Duration {
	installMu.Lock()
	defer installMu.Unlock()
	if flight == nil {
		flight = newFlightRecorder()
	}
	prev := time.Duration(flight.latThreshNs.Load())
	if d > 0 {
		flight.latThreshNs.Store(int64(d))
	} else {
		flight.latThreshNs.Store(0)
	}
	return prev
}

// SetFlightRejectSpike arms (or, with a non-positive value, disarms) the
// admission-rejection trigger: perSecond or more rejects inside one
// second freeze the flight window. Returns the previous setting; zero
// means disarmed.
func SetFlightRejectSpike(perSecond int) int {
	installMu.Lock()
	defer installMu.Unlock()
	if flight == nil {
		flight = newFlightRecorder()
	}
	prev := int(flight.rejectSpike.Load())
	if perSecond > 0 {
		flight.rejectSpike.Store(int64(perSecond))
	} else {
		flight.rejectSpike.Store(0)
	}
	return prev
}

// FlightTriggered reports whether a trigger has fired and its frozen
// capture is waiting to be read. WriteFlightSnapshot clears it.
func FlightTriggered() bool {
	installMu.Lock()
	f := flight
	installMu.Unlock()
	return f != nil && f.triggered.Load()
}

// WriteFlightSnapshot writes the flight recorder's view as Chrome
// trace-event JSON (load it at ui.perfetto.dev). If a trigger fired, the
// frozen capture from the trigger moment is written and the trigger is
// re-armed; otherwise the current live window is snapshotted
// non-destructively. triggered reports which case it was. Before the
// first EnableFlight it writes a valid empty trace.
func WriteFlightSnapshot(w io.Writer) (triggered bool, err error) {
	installMu.Lock()
	f := flight
	installMu.Unlock()
	if f == nil {
		installMu.Lock()
		if flight == nil {
			flight = newFlightRecorder()
		}
		f = flight
		installMu.Unlock()
	}
	var events []Event
	if f.triggered.Load() {
		f.capMu.Lock()
		events = f.capture
		f.capture = nil
		f.capMu.Unlock()
		triggered = events != nil
		if triggered {
			f.triggered.Store(false)
		}
	}
	if !triggered {
		// A trigger may have latched with its capture still in flight in
		// the trimmer goroutine; fall through to a live snapshot rather
		// than blocking the scrape.
		events = f.snapshotWindow()
	}
	return triggered, writeChromeTrace(w, f.col, events)
}
