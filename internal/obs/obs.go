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

// LeaseKind says how a region entry obtained its team.
type LeaseKind uint8

// Lease kinds: a cold spawn (pool empty or hot teams off), a hot-team pool
// hit, a narrowed entry's team of one, and an admission-degraded entry's
// team of one that bypasses the pool.
const (
	LeaseCold LeaseKind = iota
	LeaseHit
	LeaseSolo
	LeaseBypass
)

// Sinks is what the runtime's emit points report into: the built-in
// tracer and the metrics registry, either of which may be absent. Each
// method is one runtime event; it records a timeline entry when the tracer
// is on and updates the registry's shard when metrics are on. An event
// with a duration is one call when the slice ends: the caller passes the
// start it read and the end, both Now readings, and the tracer and the
// registry share them. Methods run inline on the emitting goroutine, often
// inside the runtime's hottest loops, and neither block nor allocate. A
// published Sinks is immutable.
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

// Region fires once per region entry, at the join, on the master's track:
// [start, end] spans the team's lease, the fork and the join. size is the
// width the entry ran at and lease how it obtained its team.
func (s *Sinks) Region(master WorkerID, team uint64, level, size int, lease LeaseKind, start, end int64) {
	if c := s.tr; c != nil {
		c.record(master, Event{Kind: EvRegion, Team: team, Arg: uint64(lease)<<32 | uint64(uint32(size)), Level: uint8(level)}, start, end)
	}
	if m := s.m; m != nil {
		sh := m.shard(master)
		sh.regionEntries[lease].Add(1)
		sh.regionLat.record(end - start)
	}
}

// Implicit fires as one worker finishes its share of a region entry
// (OMPT's implicit task): every worker of the team, master included.
// Tracer only.
func (s *Sinks) Implicit(w WorkerID, team uint64, level int, start, end int64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvImplicit, Team: team, Level: uint8(level)}, start, end)
	}
}

// TeamRetire fires when a team is destroyed (panic retirement, eviction,
// pool drain). Tracer only.
func (s *Sinks) TeamRetire(team uint64, size int) {
	if c := s.tr; c != nil {
		c.instant(NoWorker, Event{Kind: EvTeamRetire, Team: team, Arg: uint64(size)})
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
// region. at is its creation time, which the task keeps for TaskRun.
func (s *Sinks) TaskCreate(w WorkerID, task uint64, kind TaskKind, at int64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvTaskCreate, Task: task, Arg: uint64(kind)}, at, at)
	}
	if m := s.m; m != nil {
		m.shard(w).tasksSpawned.Add(1)
	}
}

// TaskRun fires as a deferred task retires, on the worker that ran it,
// which may differ from the spawner. created is its TaskCreate time (0
// when it was created with every consumer off: no spawn latency then) and
// [start, end] its execution; end is read only for the tracer.
func (s *Sinks) TaskRun(w WorkerID, task uint64, created, start, end int64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvTaskRun, Task: task}, start, end)
	}
	if m := s.m; m != nil {
		sh := m.shard(w)
		if created != 0 {
			sh.spawnLat.record(start - created)
		}
		sh.tasksCompleted.Add(1)
	}
}

// TaskInline fires instead of the create/run pair for an undeferred task:
// one run at its spawn, on a team of one.
func (s *Sinks) TaskInline(w WorkerID, task uint64) {
	if c := s.tr; c != nil {
		c.instant(w, Event{Kind: EvTaskInline, Task: task})
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

// StealSuccess fires when a probe takes a task.
func (s *Sinks) StealSuccess(w WorkerID, task uint64, victim WorkerID) {
	if c := s.tr; c != nil {
		c.instant(w, Event{Kind: EvStealSuccess, Task: task, Arg: uint64(uint32(victim))})
	}
	if m := s.m; m != nil {
		m.shard(w).steals.Add(1)
	}
}

// Barrier fires as a worker is released from a team barrier: [start, end]
// is the time it waited.
func (s *Sinks) Barrier(w WorkerID, team uint64, start, end int64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvBarrier, Team: team}, start, end)
	}
	if m := s.m; m != nil {
		m.shard(w).barrierWait.record(end - start)
	}
}

// DepRelease fires when the retirement of a task's last predecessor
// releases a parked dependent task to a deque. Tracer only.
func (s *Sinks) DepRelease(w WorkerID, task uint64) {
	if c := s.tr; c != nil {
		c.instant(w, Event{Kind: EvDepRelease, Task: task})
	}
}

// Work fires as a worker finishes its share of a work-sharing encounter
// (@For); kind is the resolved sched.Kind and [start, end] the share,
// read only for the tracer (zero otherwise).
func (s *Sinks) Work(w WorkerID, team uint64, kind uint8, start, end int64) {
	if c := s.tr; c != nil {
		c.record(w, Event{Kind: EvWork, Team: team, Arg: uint64(kind)}, start, end)
	}
	if m := s.m; m != nil {
		k := int(kind)
		if k >= schedKinds {
			k = schedKinds - 1
		}
		m.shard(w).loopShares[k].Add(1)
	}
}
