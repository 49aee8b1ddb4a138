package obs

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is the aggregate runtime counter snapshot of the built-in tracer.
// Counters accumulate while tracing is enabled (EnableTracing/StartTrace)
// and are cumulative across traces; they do not require a recording trace,
// so long-running servers can watch steal and barrier pressure without
// paying for event buffering.
type Stats struct {
	RegionForks   uint64 // parallel region entries observed
	RegionJoins   uint64 // parallel region joins observed
	TeamLeases    uint64 // team acquisitions observed
	TeamLeaseHits uint64 // leases served by the hot-team pool
	TeamRetires   uint64 // teams destroyed while observed

	TasksSpawned   uint64 // tasks queued on deques or parked on dependences
	TasksInlined   uint64 // tasks run outside the deques (own goroutine)
	TasksCompleted uint64 // task executions finished

	StealAttempts uint64 // empty-deque probes of sibling deques
	Steals        uint64 // probes that took a task
	StealProbes   uint64 // sibling slots examined by loop-range steal scans

	BarrierWaits  uint64 // barrier passages observed
	BarrierWaitNs uint64 // total nanoseconds spent blocked in barriers

	DepReleases uint64 // parked dependent tasks released to deques

	// Multi-tenant admission counters (rt server mode). Counter-only, like
	// StealAttempts: admission events happen on the entering goroutine
	// outside any worker context, so they carry no timeline value — the
	// queue-side picture lives in rt.AdmissionStats.
	AdmitGrants   uint64 // team leases granted (fast-path and after queueing)
	AdmitQueued   uint64 // grants that waited in the admission queue first
	AdmitWaitNs   uint64 // total nanoseconds spent queued for admission
	AdmitRejects  uint64 // lease requests refused (policy, full queue, timeout)
	AdmitTimeouts uint64 // refusals specifically due to a queue-wait timeout

	EventsRecorded uint64 // records stored in trace ring buffers
	EventsDropped  uint64 // records dropped since the last StartTrace reset

	// Ring-buffer accounting, exposed so production monitors can tell a
	// quiet trace from one that silently shed events. RingDrops is the
	// cumulative drop count across every trace since the tracer was
	// created — unlike EventsDropped it survives StartTrace resets (the
	// accumulation happens at reset time, so drops landing mid-reset may
	// be counted one snapshot late). TraceRings is the number of ring
	// buffers allocated so far; WorkersFolded estimates how many distinct
	// workers were folded onto shared rings because their ids exceeded
	// the ring bound (exact when worker ids are dense, a lower bound
	// otherwise).
	RingDrops     uint64
	TraceRings    int
	WorkersFolded int
}

// counters is the atomic backing of Stats.
type counters struct {
	regionForks, regionJoins          atomic.Uint64
	teamLeases, teamHits, teamRetires atomic.Uint64
	tasksSpawned, tasksInlined        atomic.Uint64
	tasksCompleted                    atomic.Uint64
	stealAttempts, steals             atomic.Uint64
	stealProbes                       atomic.Uint64
	barrierWaits, barrierWaitNs       atomic.Uint64
	depReleases                       atomic.Uint64
	admitGrants, admitQueued          atomic.Uint64
	admitWaitNs                       atomic.Uint64
	admitRejects, admitTimeouts       atomic.Uint64
	recorded                          atomic.Uint64
}

// DefaultRingCapacity is the per-worker event buffer capacity (records,
// not bytes) used unless SetRingCapacity overrides it. At 48 bytes per
// record a full buffer is under 800 KiB per worker.
const DefaultRingCapacity = 1 << 14

// collector is the built-in tracer: per-worker rings plus counters. The
// package-level singleton serves the public API; tests build private
// instances and drive the hook methods directly.
type collector struct {
	c         counters
	recording atomic.Bool
	epoch     atomic.Int64 // trace start, ns reading of the monotonic clock

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

	// rates holds the per-worker throughput counters behind
	// ReadWorkerRates, indexed and folded exactly like rings (WorkerID+1,
	// modulo the bound). Allocated eagerly — one padded line per slot is a
	// few KiB — so the emit path is a pure index, no growth branch.
	rates []rateSlot

	// names interns user-span labels; ids index list.
	namesMu sync.RWMutex
	byName  map[string]uint32
	names   []string
}

// rateSlot is one worker's cumulative loop-rate counters, alone on a cache
// line: each worker adds to its own slot at loop-share end, and sharing
// lines would turn independent workers into false-sharing partners.
type rateSlot struct {
	iters  atomic.Int64
	workNs atomic.Int64
	probes atomic.Int64
	_      [40]byte
}

func newCollector(ringCap, maxRings int) *collector {
	if maxRings < 2 {
		maxRings = 2
	}
	c := &collector{ringCap: ringCap, maxRings: maxRings, byName: map[string]uint32{}}
	c.rates = make([]rateSlot, maxRings)
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

// clock is the trace timebase. time.Since carries the monotonic reading,
// costs ~25ns and allocates nothing — fine for an emit point that already
// writes a 48-byte record.
var processEpoch = time.Now()

func monotonicNs() int64 { return int64(time.Since(processEpoch)) }

// now returns nanoseconds since the trace epoch.
func (c *collector) now() int64 { return monotonicNs() - c.epoch.Load() }

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

// rate returns the per-worker rate slot for w, folded like ring indices.
func (c *collector) rate(w WorkerID) *rateSlot {
	idx := int(w) + 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.rates) {
		idx = 1 + (idx-1)%(len(c.rates)-1)
	}
	return &c.rates[idx]
}

// record appends one event if a trace is recording.
func (c *collector) record(w WorkerID, ev Event) {
	if !c.recording.Load() {
		return
	}
	ev.When = c.now()
	ev.Worker = w
	if c.ring(w).append(ev) {
		c.c.recorded.Add(1)
	}
}

// start begins a fresh trace: buffered records from earlier traces are
// discarded and the epoch resets.
func (c *collector) start() {
	c.recording.Store(false)
	for _, r := range *c.rings.Load() {
		// Fold the live drop counter into the cumulative total before the
		// reset zeroes it, so RingDrops survives trace restarts.
		c.droppedCum.Add(r.dropped.Load())
		r.reset()
	}
	c.epoch.Store(monotonicNs())
	c.recording.Store(true)
}

// stop ends the trace and drains every ring into one record set.
func (c *collector) stop() []Event {
	c.recording.Store(false)
	var out []Event
	for _, r := range *c.rings.Load() {
		out = append(out, r.drain()...)
	}
	return out
}

// stats snapshots the counters.
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
	// Literal order is load order: dependents before their bounds, as in
	// metricsRegistry.snapshot.
	return Stats{
		RingDrops:      c.droppedCum.Load() + dropped,
		TraceRings:     len(rings),
		WorkersFolded:  folded,
		RegionJoins:    c.c.regionJoins.Load(),
		RegionForks:    c.c.regionForks.Load(),
		TeamLeaseHits:  c.c.teamHits.Load(),
		TeamLeases:     c.c.teamLeases.Load(),
		TeamRetires:    c.c.teamRetires.Load(),
		TasksCompleted: c.c.tasksCompleted.Load(),
		TasksSpawned:   c.c.tasksSpawned.Load(),
		TasksInlined:   c.c.tasksInlined.Load(),
		Steals:         c.c.steals.Load(),
		StealAttempts:  c.c.stealAttempts.Load(),
		StealProbes:    c.c.stealProbes.Load(),
		BarrierWaits:   c.c.barrierWaits.Load(),
		BarrierWaitNs:  c.c.barrierWaitNs.Load(),
		DepReleases:    c.c.depReleases.Load(),
		AdmitGrants:    c.c.admitGrants.Load(),
		AdmitQueued:    c.c.admitQueued.Load(),
		AdmitWaitNs:    c.c.admitWaitNs.Load(),
		AdmitRejects:   c.c.admitRejects.Load(),
		AdmitTimeouts:  c.c.admitTimeouts.Load(),
		EventsRecorded: c.c.recorded.Load(),
		EventsDropped:  dropped,
	}
}

// intern returns the stable id of a span name, assigning one on first use.
func (c *collector) intern(name string) uint32 {
	c.namesMu.RLock()
	id, ok := c.byName[name]
	c.namesMu.RUnlock()
	if ok {
		return id
	}
	c.namesMu.Lock()
	defer c.namesMu.Unlock()
	if id, ok := c.byName[name]; ok {
		return id
	}
	id = uint32(len(c.names))
	c.names = append(c.names, name)
	c.byName[name] = id
	return id
}

// spanName resolves an interned id (drain side).
func (c *collector) spanName(id uint32) string {
	c.namesMu.RLock()
	defer c.namesMu.RUnlock()
	if int(id) < len(c.names) {
		return c.names[id]
	}
	return "span"
}

// hooks builds the collector's hook table. Every callback is a bound
// method value created once here, so installing the tracer allocates only
// at EnableTracing time, never on the emit path.
func (c *collector) hooks() *Hooks {
	return &Hooks{
		RegionFork: func(master WorkerID, team uint64, level, size int) {
			c.c.regionForks.Add(1)
			c.record(master, Event{Kind: EvRegionFork, Team: team, Arg: uint64(size), Level: uint8(level)})
		},
		RegionJoin: func(master WorkerID, team uint64, level int) {
			c.c.regionJoins.Add(1)
			c.record(master, Event{Kind: EvRegionJoin, Team: team, Level: uint8(level)})
		},
		ImplicitBegin: func(w WorkerID, team uint64, level int) {
			c.record(w, Event{Kind: EvImplicitBegin, Team: team, Level: uint8(level)})
		},
		ImplicitEnd: func(w WorkerID, team uint64) {
			c.record(w, Event{Kind: EvImplicitEnd, Team: team})
		},
		TeamLease: func(w WorkerID, team uint64, size int, hit bool) {
			c.c.teamLeases.Add(1)
			var h uint64
			if hit {
				h = 1
				c.c.teamHits.Add(1)
			}
			c.record(w, Event{Kind: EvTeamLease, Team: team, Arg: h<<32 | uint64(uint32(size))})
		},
		TeamRetire: func(team uint64, size int) {
			c.c.teamRetires.Add(1)
			c.record(NoWorker, Event{Kind: EvTeamRetire, Team: team, Arg: uint64(size)})
		},
		TaskCreate: func(w WorkerID, task uint64, kind TaskKind) {
			c.c.tasksSpawned.Add(1)
			c.record(w, Event{Kind: EvTaskCreate, Task: task, Arg: uint64(kind)})
		},
		TaskSchedule: func(w WorkerID, task uint64) {
			c.record(w, Event{Kind: EvTaskSchedule, Task: task})
		},
		TaskComplete: func(w WorkerID, task uint64) {
			c.c.tasksCompleted.Add(1)
			c.record(w, Event{Kind: EvTaskComplete, Task: task})
		},
		TaskInline: func(w WorkerID, task uint64) {
			c.c.tasksInlined.Add(1)
			c.record(w, Event{Kind: EvTaskInline, Task: task})
		},
		StealAttempt: func(w WorkerID) {
			// Counter only: idle workers probe in a helping loop, and one
			// instant per probe would flood the rings with no timeline value.
			c.c.stealAttempts.Add(1)
		},
		StealSuccess: func(w WorkerID, task uint64, victim WorkerID) {
			c.c.steals.Add(1)
			c.record(w, Event{Kind: EvStealSuccess, Task: task, Arg: uint64(uint32(victim))})
		},
		StealScan: func(w WorkerID, probes int) {
			// Counter only, like StealAttempt: scan lengths aggregate, they
			// are not timeline moments.
			c.c.stealProbes.Add(uint64(probes))
			c.rate(w).probes.Add(int64(probes))
		},
		LoopRate: func(w WorkerID, iters, elapsedNs int64) {
			r := c.rate(w)
			r.iters.Add(iters)
			r.workNs.Add(elapsedNs)
		},
		BarrierArrive: func(w WorkerID, team uint64) {
			c.c.barrierWaits.Add(1)
			c.record(w, Event{Kind: EvBarrierArrive, Team: team})
		},
		BarrierDepart: func(w WorkerID, team uint64, waitNs int64) {
			c.c.barrierWaitNs.Add(uint64(waitNs))
			c.record(w, Event{Kind: EvBarrierDepart, Team: team, Arg: uint64(waitNs)})
		},
		// AdmitEnqueue stays nil: the enqueue is implied by AdmitGrant's
		// waitNs>0 or by AdmitReject, and depth snapshots live in
		// rt.AdmissionStats.
		AdmitGrant: func(tenant uint64, waitNs int64) {
			c.c.admitGrants.Add(1)
			if waitNs > 0 {
				c.c.admitQueued.Add(1)
				c.c.admitWaitNs.Add(uint64(waitNs))
			}
		},
		AdmitReject: func(tenant uint64, reason AdmitReason) {
			c.c.admitRejects.Add(1)
			if reason == AdmitReasonTimeout {
				c.c.admitTimeouts.Add(1)
			}
		},
		DepRelease: func(w WorkerID, task uint64) {
			c.c.depReleases.Add(1)
			c.record(w, Event{Kind: EvDepRelease, Task: task})
		},
		WorkBegin: func(w WorkerID, team uint64, kind uint8) {
			c.record(w, Event{Kind: EvWorkBegin, Team: team, Arg: uint64(kind)})
		},
		WorkEnd: func(w WorkerID, team uint64) {
			c.record(w, Event{Kind: EvWorkEnd, Team: team})
		},
		SpanBegin: func(w WorkerID, name uint32) {
			c.record(w, Event{Kind: EvSpanBegin, Task: uint64(name)})
		},
		SpanEnd: func(w WorkerID, name uint32) {
			c.record(w, Event{Kind: EvSpanEnd, Task: uint64(name)})
		},
	}
}

// ------------------------------------------------------------ public API --

// tracer is the process-wide built-in collector behind EnableTracing,
// StartTrace, StopTrace, ReadStats and InternName.
var (
	tracer      = newCollector(DefaultRingCapacity, defaultMaxRings())
	tracerHooks *Hooks
)

// EnableTracing installs (or uninstalls) the built-in tracer in the tool
// slot and returns whether it was previously installed. Enabling starts
// the aggregate counters; event buffering additionally needs StartTrace.
// Enabling replaces a custom tool installed with SetHooks (they share the
// tool slot), but composes with the metrics registry and the flight
// recorder. Disabling leaves a custom tool untouched.
func EnableTracing(on bool) bool {
	installMu.Lock()
	defer installMu.Unlock()
	prev := tracerHooks != nil && toolHooks == tracerHooks
	if on {
		if tracerHooks == nil {
			tracerHooks = tracer.hooks()
		}
		toolHooks = tracerHooks
		rebuildActiveLocked()
		return prev
	}
	tracer.recording.Store(false)
	if prev {
		toolHooks = nil
		rebuildActiveLocked()
	}
	return prev
}

// TracingEnabled reports whether the built-in tracer occupies the tool
// slot.
func TracingEnabled() bool {
	installMu.Lock()
	defer installMu.Unlock()
	return tracerHooks != nil && toolHooks == tracerHooks
}

// StartTrace enables the tracer if needed and begins recording events into
// the per-worker ring buffers, discarding any previous trace.
func StartTrace() {
	EnableTracing(true)
	tracer.start()
}

// StopTrace ends the recording started by StartTrace, drains the ring
// buffers and writes the trace as Chrome trace-event JSON to w (load it at
// ui.perfetto.dev or chrome://tracing). Aggregate counters keep running;
// use EnableTracing(false) to uninstall the tracer entirely. Without a
// prior StartTrace it writes a valid empty trace.
func StopTrace(w io.Writer) error {
	events := tracer.stop()
	return writeChromeTrace(w, tracer, events)
}

// ReadStats snapshots the built-in tracer's aggregate counters.
func ReadStats() Stats { return tracer.stats() }

// WorkerRate is one worker's cumulative loop-throughput counters: the
// iterations it executed inside for constructs, the nanoseconds those
// shares took, and the sibling slots it probed while stealing loop
// ranges. Iters/WorkNs is the worker's observed speed; a worker whose
// ratio trails its siblings' is the asymmetric (throttled, contended,
// or simply slower) one, and StealProbes/steals gauges how hard its
// victim selection worked.
type WorkerRate struct {
	Worker      WorkerID
	Iters       int64
	WorkNs      int64
	StealProbes int64
}

// ReadWorkerRates snapshots the built-in tracer's per-worker rate
// counters without draining or pausing a trace — they are plain padded
// atomics fed by the LoopRate/StealScan hooks, so the read is safe from
// any goroutine at any time. Slots that never counted are omitted.
// Workers beyond the tracer's ring bound fold onto shared slots (like
// trace rings); a folded slot reports the lowest WorkerID that maps to
// it. Counters accumulate while tracing is enabled and reset never —
// callers diff snapshots for interval rates.
func ReadWorkerRates() []WorkerRate {
	out := make([]WorkerRate, 0, len(tracer.rates))
	for i := range tracer.rates {
		r := &tracer.rates[i]
		wr := WorkerRate{
			Worker:      WorkerID(i - 1),
			Iters:       r.iters.Load(),
			WorkNs:      r.workNs.Load(),
			StealProbes: r.probes.Load(),
		}
		if wr.Iters != 0 || wr.WorkNs != 0 || wr.StealProbes != 0 {
			out = append(out, wr)
		}
	}
	return out
}

// InternName returns the stable id the built-in tracer files user spans
// under — aspects intern their joinpoint names once at weave time and emit
// the id, keeping the emit path free of string handling.
func InternName(name string) uint32 { return tracer.intern(name) }

// SetRingCapacity sets the per-worker event buffer capacity (records,
// rounded up to a power of two) for rings created after the call, and
// returns the previous setting. Existing rings keep their size; call it
// before the first StartTrace. Intended for tests and long traces.
func SetRingCapacity(n int) int {
	installMu.Lock()
	defer installMu.Unlock()
	prev := tracer.ringCap
	if n > 0 {
		tracer.ringCap = n
	}
	return prev
}
