package obs

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is the built-in tracer's ring accounting: what it stored, what it
// shed, and the shape of its ring pool. Event counts live in the metrics
// registry (ReadMetrics), pool and admission tallies in the runtime
// (PoolStats, AdmissionStats).
type Stats struct {
	EventsRecorded uint64 // records stored in trace ring buffers
	EventsDropped  uint64 // records dropped since the last StartTrace reset

	// RingDrops is the cumulative drop count across every trace since the
	// tracer was created — unlike EventsDropped it survives StartTrace
	// resets (the accumulation happens at reset time, so drops landing
	// mid-reset may be counted one snapshot late). TraceRings is the
	// number of ring buffers allocated so far; WorkersFolded estimates how
	// many distinct workers were folded onto shared rings because their
	// ids exceeded the ring bound (exact when worker ids are dense, a lower
	// bound otherwise).
	RingDrops     uint64
	TraceRings    int
	WorkersFolded int
}

// DefaultRingCapacity is the tracer's per-worker event buffer capacity
// (records, not bytes). At 48 bytes per record a full buffer is under
// 800 KiB per worker.
const DefaultRingCapacity = 1 << 14

// Tracer states: a start moves the tracer to starting while it resets the
// rings (nothing records), then to recording; a stop moves it to idle.
const (
	idle int32 = iota
	starting
	recording
)

// collector is the built-in tracer: per-worker rings and the count of
// records they stored. The package-level singleton serves the public API;
// tests build private instances and drive them through a Sinks.
type collector struct {
	recorded atomic.Uint64
	state    atomic.Int32 // idle, starting or recording
	epoch    atomic.Int64 // trace start, ns reading of the monotonic clock

	// rings is indexed by WorkerID+1 (index 0 is the shared ring for
	// NoWorker emits). The slice is copy-on-write: the hot path is one
	// atomic load and an index; growth happens under growMu only when a
	// new worker emits its first event. The pool is bounded by maxRings —
	// workers beyond it fold onto shared rings modulo the bound, so a
	// workload that keeps cold-spawning teams (hot teams off, deep
	// nesting) shares buffer capacity instead of allocating a ring per
	// ephemeral worker forever. Folding costs nothing in the export:
	// records carry their worker id, so folded workers keep distinct
	// tracks.
	rings    atomic.Pointer[[]*ring]
	growMu   sync.Mutex
	ringCap  int
	maxRings int

	// droppedCum accumulates per-ring drop counters across StartTrace
	// resets (each reset zeroes the live counters); foldedMax tracks the
	// highest raw ring index ever folded, so stats can report how many
	// workers shared rings.
	droppedCum atomic.Uint64
	foldedMax  atomic.Int64
}

func newCollector(ringCap, maxRings int) *collector {
	if maxRings < 2 {
		maxRings = 2
	}
	c := &collector{ringCap: ringCap, maxRings: maxRings}
	c.rings.Store(&[]*ring{})
	return c
}

// defaultMaxRings bounds the tracer's ring pool: enough for a few
// default-sized teams' worth of distinct workers before folding sets in,
// and a hard memory ceiling of maxRings x ringCap records either way.
func defaultMaxRings() int {
	n := 4*runtime.GOMAXPROCS(0) + 1
	if n < 65 {
		n = 65
	}
	return n
}

// processEpoch anchors Now; time.Since carries the monotonic reading.
var processEpoch = time.Now()

// Now reads the runtime's one monotonic clock: nanoseconds since the
// process started. It costs ~25 ns and allocates nothing. The runtime
// reads it once per slice boundary and passes the readings to Sinks, so
// the tracer, the metrics registry and the runtime's own timing (a
// Grain's width record, barrier spin budgets, admission waits) share one
// timebase.
func Now() int64 { return int64(time.Since(processEpoch)) }

// ring returns the event buffer for w, creating it on first use (the only
// allocating path; it runs at most maxRings times per collector, never in
// steady state).
func (c *collector) ring(w WorkerID) *ring {
	idx := int(w) + 1
	if idx < 0 {
		idx = 0
	}
	if idx >= c.maxRings {
		// Track the widest fold for stats; the CAS loop runs only while
		// new maxima appear, so steady state costs one load + branch.
		for {
			m := c.foldedMax.Load()
			if int64(idx) <= m || c.foldedMax.CompareAndSwap(m, int64(idx)) {
				break
			}
		}
		idx = 1 + (idx-1)%(c.maxRings-1)
	}
	rs := *c.rings.Load()
	if idx < len(rs) {
		return rs[idx]
	}
	c.growMu.Lock()
	defer c.growMu.Unlock()
	rs = *c.rings.Load()
	if idx < len(rs) {
		return rs[idx]
	}
	grown := make([]*ring, idx+1)
	copy(grown, rs)
	for i := len(rs); i <= idx; i++ {
		grown[i] = newRing(c.ringCap)
	}
	c.rings.Store(&grown)
	return grown[idx]
}

// record appends one event spanning the Now readings [start, end] if a
// trace is recording.
func (c *collector) record(w WorkerID, ev Event, start, end int64) {
	if c.state.Load() != recording {
		return
	}
	epoch := c.epoch.Load()
	ev.Start, ev.When, ev.Worker = start-epoch, end-epoch, w
	if c.ring(w).append(ev) {
		c.recorded.Add(1)
	}
}

// instant records ev at the current time if a trace is recording.
func (c *collector) instant(w WorkerID, ev Event) {
	if c.state.Load() == recording {
		now := Now()
		c.record(w, ev, now, now)
	}
}

// start begins a fresh trace: buffered records from earlier traces are
// discarded and the epoch resets.
func (c *collector) start() {
	c.state.Store(starting)
	c.begin()
}

// tryStart is start for a caller that must not disturb a trace in
// progress: it claims the tracer only from idle and reports whether it did.
func (c *collector) tryStart() bool {
	if !c.state.CompareAndSwap(idle, starting) {
		return false
	}
	c.begin()
	return true
}

// begin resets the rings and the epoch of a claimed tracer and records.
func (c *collector) begin() {
	for _, r := range *c.rings.Load() {
		// Fold the live drop counter into the cumulative total before the
		// reset zeroes it, so RingDrops survives trace restarts.
		c.droppedCum.Add(r.dropped.Load())
		r.reset()
	}
	c.epoch.Store(Now())
	c.state.Store(recording)
}

// stop ends the trace and drains every ring into one record set.
func (c *collector) stop() []Event {
	c.state.Store(idle)
	var out []Event
	for _, r := range *c.rings.Load() {
		out = append(out, r.drain()...)
	}
	return out
}

// stats snapshots the ring accounting.
func (c *collector) stats() Stats {
	var dropped uint64
	rings := *c.rings.Load()
	for _, r := range rings {
		dropped += r.dropped.Load()
	}
	folded := 0
	if m := c.foldedMax.Load(); m >= int64(c.maxRings) {
		folded = int(m) - c.maxRings + 1
	}
	return Stats{
		EventsRecorded: c.recorded.Load(),
		EventsDropped:  dropped,
		RingDrops:      c.droppedCum.Load() + dropped,
		TraceRings:     len(rings),
		WorkersFolded:  folded,
	}
}

// ------------------------------------------------------------ public API --

// tracer is the process-wide built-in collector behind EnableTracing,
// StartTrace, StopTrace and ReadStats.
var tracer = newCollector(DefaultRingCapacity, defaultMaxRings())

// EnableTracing turns the built-in tracer on or off and returns whether it
// was on. The tracer records a timeline, one record per slice written when
// the slice ends, and counts nothing: event buffering needs StartTrace,
// event counts need EnableMetrics. It is independent of
// the metrics registry: turning one on or off never touches the other.
func EnableTracing(on bool) bool {
	if !on {
		tracer.state.Store(idle)
	}
	return update(func(s *Sinks) {
		s.tr = nil
		if on {
			s.tr = tracer
		}
	}).tr != nil
}

// TracingEnabled reports whether the built-in tracer is on.
func TracingEnabled() bool { return active.Load().Tracing() }

// StartTrace enables the tracer if needed and begins recording events into
// the per-worker ring buffers, discarding any previous trace.
func StartTrace() {
	EnableTracing(true)
	tracer.start()
}

// TryStartTrace is StartTrace unless a trace is already recording (or
// starting), in which case it leaves that trace alone and reports false.
func TryStartTrace() bool {
	EnableTracing(true)
	return tracer.tryStart()
}

// StopTrace ends the recording started by StartTrace, drains the ring
// buffers and writes the trace as Chrome trace-event JSON to w (load it at
// ui.perfetto.dev or chrome://tracing). A slice is recorded when it ends,
// so one still open at StopTrace is not in the trace; one that began
// before StartTrace is clipped to the trace start. The tracer stays
// installed; use EnableTracing(false) to uninstall it. Without a prior
// StartTrace it writes a valid empty trace.
func StopTrace(w io.Writer) error {
	events := tracer.stop()
	return writeChromeTrace(w, tracer, events)
}

// ReadStats snapshots the built-in tracer's ring accounting.
func ReadStats() Stats { return tracer.stats() }
