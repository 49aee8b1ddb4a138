package obs

import (
	"sync"
	"sync/atomic"
)

// WorkerID is a process-unique worker identity, stable for the lifetime of
// the worker (hot-team workers keep theirs across leases). It names the
// trace track events land on. NoWorker marks events emitted outside any
// worker context (sequential code, rescue goroutines).
type WorkerID int32

// NoWorker is the WorkerID of emit points outside any parallel region.
const NoWorker WorkerID = -1

// TaskKind classifies task creation events.
type TaskKind uint8

// Task kinds: deferred deque tasks (@Task), future-backed tasks
// (@FutureTask), and their dependence-clause variants (@Depend), each its
// base kind plus TaskDependent.
const (
	TaskDeferred TaskKind = iota
	TaskFuture
	TaskDependent
	TaskFutureDependent
)

// Sinks is what the runtime's emit points report into: the built-in
// tracer and the metrics registry, either of which may be absent. Each
// method is one runtime event; it records a timeline entry when the tracer
// is on and updates the registry's shard when metrics are on. Methods run
// inline on the emitting goroutine, often inside the runtime's hottest
// loops, and neither block nor allocate. A published Sinks is immutable.
type Sinks struct {
	tr *collector
	m  *metricsRegistry
}

// active is the published consumer pair, nil when both are off. One atomic
// load decides the disabled path, so emit points cost a predicted branch
// when nothing consumes their events.
var active atomic.Pointer[Sinks]

// Active returns the published consumers, or nil when observability is
// off. Runtime emit points call this once and skip everything on nil.
func Active() *Sinks { return active.Load() }

// installMu serializes EnableTracing and EnableMetrics.
var installMu sync.Mutex

// update applies set to a copy of the published pair under installMu and
// publishes the result (nil when both consumers are off), returning the
// pair that was published before.
func update(set func(*Sinks)) (prev Sinks) {
	installMu.Lock()
	defer installMu.Unlock()
	if cur := active.Load(); cur != nil {
		prev = *cur
	}
	next := prev
	set(&next)
	if next.tr == nil && next.m == nil {
		active.Store(nil)
	} else {
		active.Store(&next)
	}
	return prev
}

// Tracing reports whether the tracer is among the consumers (false on a
// nil Sinks). Emit points whose event only the tracer records check it
// first when building the event costs a lookup, a clock read or a defer.
func (s *Sinks) Tracing() bool { return s != nil && s.tr != nil }

// RegionFork fires on the master as a parallel region starts, before any
// worker wakes.
func (s *Sinks) RegionFork(master WorkerID, team uint64, level, size int) {
	if c := s.tr; c != nil {
		c.record(master, Event{Kind: EvRegionFork, Team: team, Arg: uint64(size), Level: uint8(level)})
	}
	if m := s.m; m != nil {
		m.shard(master).regionEntries.Add(1)
		m.regionTimes.put(team, monotonicNs())
	}
}

// RegionJoin fires after the region fully joined.
func (s *Sinks) RegionJoin(master WorkerID, team uint64, level int) {
	if c := s.tr; c != nil {
		c.record(master, Event{Kind: EvRegionJoin, Team: team, Level: uint8(level)})
	}
	if m := s.m; m != nil {
		if t0, ok := m.regionTimes.take(team); ok {
			m.shard(master).regionLat.record(monotonicNs() - t0)
		}
	}
}

// ImplicitBegin and ImplicitEnd bracket one worker's share of a region
// entry (OMPT's implicit task): every worker of the team fires the pair,
// master included. Tracer only.
func (s *Sinks) ImplicitBegin(w WorkerID, team uint64, level int) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvImplicitBegin, Team: team, Level: uint8(level)})
	}
}

// ImplicitEnd closes ImplicitBegin's share. Tracer only.
func (s *Sinks) ImplicitEnd(w WorkerID, team uint64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvImplicitEnd, Team: team})
	}
}

// TeamLease fires when a region entry obtains its team; hit reports
// whether the hot-team pool served it. Tracer only.
func (s *Sinks) TeamLease(w WorkerID, team uint64, size int, hit bool) {
	if c := s.tr; c != nil {
		var h uint64
		if hit {
			h = 1
		}
		c.record(w, Event{Kind: EvTeamLease, Team: team, Arg: h<<32 | uint64(uint32(size))})
	}
}

// TeamRetire fires when a team is destroyed (panic retirement, eviction,
// pool drain). Tracer only.
func (s *Sinks) TeamRetire(team uint64, size int) {
	if c := s.tr; c != nil {
		c.record(NoWorker, Event{Kind: EvTeamRetire, Team: team, Arg: uint64(size)})
	}
}

// AdmitGrant fires on the entering goroutine when admission control grants
// a lease: waitNs is zero for uncontended grants and the queue wait
// otherwise. Metrics only; waits and refusals are counted by rt itself.
func (s *Sinks) AdmitGrant(tenant uint64, waitNs int64) {
	if m := s.m; m != nil {
		m.admitWait.record(waitNs)
	}
}

// TaskCreate fires when a task is deferred: queued on a deque, parked in
// the dependence tracker, or started on its own goroutine outside a
// region.
func (s *Sinks) TaskCreate(w WorkerID, task uint64, kind TaskKind) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvTaskCreate, Task: task, Arg: uint64(kind)})
	}
	if m := s.m; m != nil {
		m.shard(w).tasksSpawned.Add(1)
		m.spawnTimes.put(task, monotonicNs())
	}
}

// TaskSchedule and TaskComplete bracket a task's execution on the
// executing worker, which may differ from the spawner.
func (s *Sinks) TaskSchedule(w WorkerID, task uint64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvTaskSchedule, Task: task})
	}
	if m := s.m; m != nil {
		if t0, ok := m.spawnTimes.take(task); ok {
			m.shard(w).spawnLat.record(monotonicNs() - t0)
		}
	}
}

// TaskComplete closes TaskSchedule's slice.
func (s *Sinks) TaskComplete(w WorkerID, task uint64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvTaskComplete, Task: task})
	}
	if m := s.m; m != nil {
		m.shard(w).tasksCompleted.Add(1)
	}
}

// TaskInline fires instead of the create/schedule/complete triple for an
// undeferred task: one run at its spawn, on a team of one.
func (s *Sinks) TaskInline(w WorkerID, task uint64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvTaskInline, Task: task})
	}
	if m := s.m; m != nil {
		sh := m.shard(w)
		sh.tasksSpawned.Add(1)
		sh.tasksCompleted.Add(1)
	}
}

// StealAttempt fires when a worker with an empty deque starts probing its
// siblings. Metrics only.
func (s *Sinks) StealAttempt(w WorkerID) {
	if m := s.m; m != nil {
		m.shard(w).stealAttempts.Add(1)
	}
}

// StealSuccess fires when a probe takes a task (task 0 marks a loop-range
// steal).
func (s *Sinks) StealSuccess(w WorkerID, task uint64, victim WorkerID) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvStealSuccess, Task: task, Arg: uint64(uint32(victim))})
	}
	if m := s.m; m != nil {
		m.shard(w).steals.Add(1)
	}
}

// StealScan fires when a loop-range steal scan completes, carrying the
// number of sibling slots probed. Metrics only.
func (s *Sinks) StealScan(w WorkerID, probes int) {
	if m := s.m; m != nil {
		m.shard(w).stealProbes.Add(uint64(probes))
	}
}

// BarrierArrive fires as a worker reaches a team barrier. Tracer only.
func (s *Sinks) BarrierArrive(w WorkerID, team uint64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvBarrierArrive, Team: team})
	}
}

// BarrierDepart fires as the worker is released, carrying the nanoseconds
// it spent waiting.
func (s *Sinks) BarrierDepart(w WorkerID, team uint64, waitNs int64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvBarrierDepart, Team: team, Arg: uint64(waitNs)})
	}
	if m := s.m; m != nil {
		sh := m.shard(w)
		sh.barrierWaits.Add(1)
		sh.barrierWait.record(waitNs)
	}
}

// DepRelease fires when the retirement of a task's last predecessor
// releases a parked dependent task to a deque. Tracer only.
func (s *Sinks) DepRelease(w WorkerID, task uint64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvDepRelease, Task: task})
	}
}

// WorkBegin fires as a worker begins its share of a work-sharing
// encounter (@For); kind is the resolved sched.Kind.
func (s *Sinks) WorkBegin(w WorkerID, team uint64, kind uint8) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvWorkBegin, Team: team, Arg: uint64(kind)})
	}
	if m := s.m; m != nil {
		k := int(kind)
		if k >= schedKinds {
			k = schedKinds - 1
		}
		m.shard(w).loopShares[k].Add(1)
	}
}

// WorkEnd closes WorkBegin's share. Tracer only.
func (s *Sinks) WorkEnd(w WorkerID, team uint64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvWorkEnd, Team: team})
	}
}

// SpanBegin and SpanEnd bracket a user-defined span; the TraceSpans
// aspect emits them around matched method calls. name is an id interned
// with InternName. Tracer only.
func (s *Sinks) SpanBegin(w WorkerID, name uint32) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvSpanBegin, Task: uint64(name)})
	}
}

// SpanEnd closes SpanBegin's span. Tracer only.
func (s *Sinks) SpanEnd(w WorkerID, name uint32) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvSpanEnd, Task: uint64(name)})
	}
}
