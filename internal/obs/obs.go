package obs

import "sync/atomic"

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
// (@FutureTask), and their dependence-clause variants (@Depend).
const (
	TaskDeferred TaskKind = iota
	TaskFuture
	TaskDependent
	TaskFutureDependent
)

// Hooks is the tool interface: one callback per runtime event, in the
// spirit of OpenMP's OMPT. Nil entries are skipped by the emit points, so
// a tool implements only what it needs. Callbacks run inline on the
// emitting goroutine — often inside the runtime's hottest loops — and must
// not block, allocate, or re-enter the runtime.
type Hooks struct {
	// RegionFork fires on the master as a parallel region starts, before
	// any worker wakes; RegionJoin fires after the region fully joined.
	RegionFork func(master WorkerID, team uint64, level, size int)
	RegionJoin func(master WorkerID, team uint64, level int)

	// ImplicitBegin/ImplicitEnd bracket one worker's share of a region
	// entry (OMPT's implicit task): every worker of the team fires the
	// pair, master included.
	ImplicitBegin func(w WorkerID, team uint64, level int)
	ImplicitEnd   func(w WorkerID, team uint64)

	// TeamLease fires when a region entry obtains its team — hit reports
	// whether the hot-team pool served it; TeamRetire fires when a team is
	// destroyed (panic retirement, eviction, pool drain).
	TeamLease  func(w WorkerID, team uint64, size int, hit bool)
	TeamRetire func(team uint64, size int)

	// Multi-tenant admission (rt server mode). AdmitGrant fires when an
	// entry is granted a lease — waitNs is zero for uncontended grants and
	// the queue-wait time otherwise; tenant is the rt-assigned tenant id
	// (rt.AdmissionStats maps ids to names). It fires on the entering
	// goroutine, outside any worker context. Waits and refusals are
	// counted by rt itself (rt.ReadAdmissionStats).
	AdmitGrant func(tenant uint64, waitNs int64)

	// TaskCreate fires when a task is queued on a deque or parked in the
	// dependence tracker; TaskSchedule/TaskComplete bracket its execution
	// (on the executing worker, which may differ from the spawner);
	// TaskInline fires instead of the triple for tasks that never enter a
	// deque — out-of-region spawns running on their own goroutines.
	TaskCreate   func(w WorkerID, task uint64, kind TaskKind)
	TaskSchedule func(w WorkerID, task uint64)
	TaskComplete func(w WorkerID, task uint64)
	TaskInline   func(w WorkerID, task uint64)

	// StealAttempt fires when a worker with an empty deque starts probing
	// its siblings; StealSuccess fires when a probe takes a task.
	StealAttempt func(w WorkerID)
	StealSuccess func(w WorkerID, task uint64, victim WorkerID)

	// StealScan fires when a loop-range steal scan completes — successful
	// or fruitless — carrying the number of sibling slots probed, so
	// victim-selection quality (probes per steal) is observable.
	StealScan func(w WorkerID, probes int)

	// BarrierArrive fires as a worker reaches a team barrier;
	// BarrierDepart fires as it is released, carrying the nanoseconds the
	// worker spent waiting.
	BarrierArrive func(w WorkerID, team uint64)
	BarrierDepart func(w WorkerID, team uint64, waitNs int64)

	// DepRelease fires when the retirement of a task's last predecessor
	// releases a parked dependent task to a deque.
	DepRelease func(w WorkerID, task uint64)

	// WorkBegin/WorkEnd bracket one worker's share of a work-sharing
	// construct encounter (@For); kind is the resolved sched.Kind.
	WorkBegin func(w WorkerID, team uint64, kind uint8)
	WorkEnd   func(w WorkerID, team uint64)

	// SpanBegin/SpanEnd bracket a user-defined span — the TraceSpans
	// aspect emits them around matched method calls. name is an id
	// interned with InternName.
	SpanBegin func(w WorkerID, name uint32)
	SpanEnd   func(w WorkerID, name uint32)
}

// active is the published hook table. One atomic load decides the disabled
// path, so emit points cost a predicted branch when no tool is installed.
var active atomic.Pointer[Hooks]

// Active returns the installed hook table, or nil when observability is
// off. Runtime emit points call this once and skip everything on nil.
func Active() *Hooks { return active.Load() }

// SetHooks installs a custom tool's hook table (nil uninstalls), returning
// the previous occupant of the tool slot (the custom table or the built-in
// tracer it replaces). The table must not be mutated after installation —
// publish a fresh one instead. A custom tool shares the tool slot with the
// built-in tracer exactly as before, but composes freely with the metrics
// registry: events fan out to both.
func SetHooks(h *Hooks) *Hooks {
	installMu.Lock()
	defer installMu.Unlock()
	prev := toolHooks
	toolHooks = h
	rebuildActiveLocked()
	return prev
}
