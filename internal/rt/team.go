package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"aomplib/internal/gls"
	"aomplib/internal/obs"
)

// current holds the per-goroutine stack of worker contexts. Parallel
// regions push a Worker on each participating goroutine; nested regions
// stack naturally. With the default gls backend the binding extends to
// goroutines spawned inside the region's dynamic extent.
var current = gls.NewStore()

// glsContexts counts live worker registrations, so Current can answer
// "no parallel region anywhere" with one atomic load — keeping woven
// calls in sequential programs at direct-call cost even under the
// portable gls backend, whose per-goroutine lookup is comparatively slow.
// Hot-team workers register only for the duration of a lease round; while
// parked they hold no binding, so sequential code between regions keeps
// the fast path.
var glsContexts atomic.Int64

// Current returns the Worker executing on this goroutine, or nil when the
// caller is outside any parallel region (sequential part of the program).
func Current() *Worker {
	if glsContexts.Load() > 0 {
		if v := current.Current(); v != nil {
			return v.(*Worker)
		}
	}
	return nil
}

// ThreadID reports the id of the calling worker within its (innermost)
// team, or 0 outside parallel regions — the paper's getThreadId().
func ThreadID() int {
	if w := Current(); w != nil {
		return w.ID
	}
	return 0
}

// NumThreads reports the size of the calling worker's team, or 1 outside
// parallel regions.
func NumThreads() int {
	if w := Current(); w != nil {
		return w.Team.Size
	}
	return 1
}

// Level reports the parallel-region nesting depth at the caller: 0 outside
// any region, 1 inside an outermost region, and so on.
func Level() int {
	if w := Current(); w != nil {
		return w.Team.Level()
	}
	return 0
}

// DefaultThreads returns the team size used when a parallel region does
// not specify one: one thread per available processor (OpenMP's default),
// read live so programs that resize GOMAXPROCS (cgroup quota libraries,
// runtime.GOMAXPROCS in main) keep getting correctly-sized teams.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// Team is a long-lived team of workers. One team serves many parallel
// region entries over its lifetime: each entry leases the team (from the
// hot-team pool, or cold-spawned), runs one lease round on its workers,
// and either recycles the team into the pool or retires it (pool.go).
type Team struct {
	// Size is the number of workers (master included). It is fixed for
	// the team's lifetime and is the pool's cache key.
	Size int
	// tid is the team's process-unique observability identity, carried by
	// every trace event the team's lifecycle emits.
	tid uint64
	// level is the region nesting depth of the current lease (outermost
	// region = 1). Atomic — with hot teams it is rewritten per lease, and
	// goroutines that outlived an earlier lease may still query it
	// through a stale worker context; they get the current lease's value
	// (stale-but-defined), never a data race.
	level atomic.Int32
	// parent is the worker that entered the current lease's region (nil
	// at the outermost level when entered from sequential code). Atomic
	// for the same reason as level.
	parent atomic.Pointer[Worker]

	// workers lists all team members (index == Worker.ID); it is what
	// task stealing iterates over. Immutable after newTeam.
	workers []*Worker

	barrier *Barrier

	// completed flips once the current lease has fully joined; spawns
	// observed after that fall back to the global (goroutine-per-task)
	// scope until the next lease begins.
	completed atomic.Bool

	// epoch counts leases served by this team, so state recorded outside
	// the team can be keyed by (team, epoch) and never conflate entries.
	epoch atomic.Uint64

	// Lease round state: body/arg are what every worker of the round
	// executes, wg joins the non-master workers. (Re)written by beginLease
	// before workers wake; the wake-channel send orders the writes against
	// worker reads.
	body     func(*Worker, any)
	arg      any
	wg       sync.WaitGroup
	timeWake bool // stamp wokeAt as team-mates start (a Grain's hand-off)
	wokeAt   atomic.Int64

	// poisoned marks a team one of whose workers escaped a lease round via
	// runtime.Goexit — its goroutine is gone, so the team must be retired,
	// never recycled. Panics do not poison (the worker survives them), but
	// a panicked lease also retires its team (pool.go).
	poisoned atomic.Bool
	// retired guards double-destruction; a team reaches destroy exactly
	// once — from its lease holder or from a pool drain.
	retired bool

	// panicked is set by the first panic of the lease round, which also
	// stores panicVal; the master reads both after the join, which orders
	// them.
	panicked atomic.Bool
	panicVal any
	// failed: a worker left the lease by panic or Goexit, so a lapped
	// team-mate must stop waiting for it (encounter.go). Such a team retires.
	failed atomic.Bool

	tasks atomic.Pointer[TaskGroup]  // lazily created on first task spawn/wait
	deps  atomic.Pointer[depTracker] // lazily created on first @Depend spawn

	// records is the team's construct table (encounter.go), touched under
	// mu only when a worker first meets a construct. Records persist across
	// leases: their slots are lease-tagged, their adaptive state re-tunes.
	mu      sync.Mutex
	records []*construct
}

// Worker is one activity in a team. Exported fields are safe to read from
// the worker's own goroutine.
type Worker struct {
	ID   int
	Team *Team
	// gid is the worker's process-unique observability identity — the
	// trace track its events land on. Stable across leases.
	gid obs.WorkerID

	deque deque         // pending deferred tasks (stealable by siblings)
	rng   atomic.Uint64 // steal-victim selection state

	// slot is the worker's reusable goroutine-local binding, pushed for
	// the duration of each lease round; reuse keeps warm region entries
	// free of gls allocations.
	slot *gls.Slot
	// wake parks the worker goroutine between leases (nil for the master,
	// who always runs on the entering goroutine). A send dispatches one
	// lease round; closing the channel retires the goroutine.
	wake chan struct{}

	cursors   []*cursor     // worker-private construct table (encounter.go)
	activeFor []*ForContext // stack: nested work-sharing contexts
	fcFree    []*ForContext // recycled work-sharing contexts

	// curGroup is the innermost TaskGroupScope active on this worker;
	// spawned tasks join it instead of the team group, and executing a
	// task adopts its group so descendants join the same scope. Atomic
	// because goroutines with inherited worker context may share w.
	curGroup atomic.Pointer[TaskGroup]

	// The tail keeps the next heap object — in a team, typically the next
	// worker — off the line that holds this worker's context stacks, which
	// the owner writes at every loop encounter (without it, a woven static
	// @For encounter read ≈ 7 % slower on a 2-vCPU x86 host).
	_ [64]byte
}

// Barrier returns the team barrier.
func (t *Team) Barrier() *Barrier { return t.barrier }

// Epoch reports how many region entries this team has served. Within one
// entry it is stable; state keyed by (team, epoch) cannot leak between
// entries of a reused team.
func (t *Team) Epoch() uint64 { return t.epoch.Load() }

// Tasks returns the team task group (joined by @TaskWait and at region
// end), creating it on first use so task-free regions pay nothing.
func (t *Team) Tasks() *TaskGroup {
	if g := t.tasks.Load(); g != nil {
		return g
	}
	t.tasks.CompareAndSwap(nil, NewTaskGroup())
	return t.tasks.Load()
}

// depTracker returns the team's dependence tracker (@Depend bookkeeping),
// creating it on first use so dependence-free regions pay nothing. The
// tracker — and its node/object free lists — carries across leases, one
// of the reuse wins for region-per-iteration dataflow programs.
func (t *Team) depTracker() *depTracker {
	if d := t.deps.Load(); d != nil {
		return d
	}
	t.deps.CompareAndSwap(nil, newDepTracker())
	return t.deps.Load()
}

// Level reports the region nesting depth of the team's current lease
// (outermost region = 1).
func (t *Team) Level() int { return int(t.level.Load()) }

// Parent returns the worker that entered the current lease's region, or
// nil at the outermost level (or between leases).
func (t *Team) Parent() *Worker { return t.parent.Load() }

// ParentTeam returns the team enclosing this one, or nil at the outermost
// level — the team lineage behind nested parallel regions.
func (t *Team) ParentTeam() *Team {
	if p := t.parent.Load(); p != nil {
		return p.Team
	}
	return nil
}

// Root returns the outermost team of this team's lineage.
func (t *Team) Root() *Team {
	for t.ParentTeam() != nil {
		t = t.ParentTeam()
	}
	return t
}

// Region executes body with a team of n workers, reproducing paper Fig. 9:
// the caller becomes worker 0 (the master), n-1 workers run body on their
// own goroutines, each establishes its worker context, and the master
// joins all workers before returning. Any panic raised by a worker is
// re-raised on the master after the join, so failures cannot be lost.
//
// With hot teams (the default), the workers are leased from a process-wide
// pool of parked goroutines and returned to it afterwards, so
// region-per-iteration programs do not pay goroutine spawn/join per entry;
// SetHotTeams(false) restores the spawn-and-discard behaviour. Either way
// each entry observes a fresh team: encounter counters, thread-locals and
// task scopes start empty.
//
// n < 1 selects DefaultThreads(). Nested calls create a fresh inner team,
// as the library "also supports nested parallel regions". The region's
// end is a task scheduling point: every worker drains the team's
// deferred tasks before the join completes.
func Region(n int, body func(w *Worker)) {
	RegionArg(n, plainBody, body)
}

// plainBody adapts Region's closure form to the argument-carrying form
// without allocating (func values are pointer-shaped).
func plainBody(w *Worker, arg any) { arg.(func(*Worker))(w) }

// RegionArg is Region with the body's state threaded through an explicit
// argument: body is typically a long-lived function and arg a pooled
// per-entry struct. This split keeps warm region entries allocation-free —
// a per-entry closure would escape to the heap on every call because the
// team stores it for its workers. The team has exactly n workers (one
// when degraded by admission); entered through
// a Grain, n is a ceiling instead.
func RegionArg(n int, body func(w *Worker, arg any), arg any) {
	(*Grain)(nil).RegionArg(n, body, arg)
}

// RegionArg is the package-level RegionArg with n as a ceiling: the record
// picks n or 1 workers per entry (grain.go). A nil record always runs n.
func (g *Grain) RegionArg(n int, body func(w *Worker, arg any), arg any) {
	if n < 1 {
		n = DefaultThreads()
	}
	parent := Current()
	level := 1
	if parent != nil {
		level = parent.Team.Level() + 1
	}
	ge := g.pick(n)
	if ge.narrow {
		n = 1
	}
	pooled := true
	if parent == nil && admissionOn.Load() {
		// Top-level entries pass through multi-tenant admission; nested
		// entries ride the slot their top-level region already holds (and
		// must never queue — a wait inside a held slot could deadlock).
		grant := admitRegion()
		if grant.degraded {
			// Refused a lease: degrade gracefully — run serialized on a
			// cold team of one that bypasses the pool, so saturation
			// traffic cannot thrash warm full-width teams out of it.
			n = 1
			pooled = false
			ge = grainEntry{}
		}
		if grant.tenant != nil {
			// Deferred (not inlined into the two completion paths below) so
			// the slot releases exactly once on every exit: normal return,
			// re-raised worker panic, and master Goexit.
			defer admitExit(grant.tenant)
		}
	}
	// The entry's two boundary reads, start here and end at the join, are
	// shared by the width record, the metrics registry and the tracer.
	h := obs.Active()
	var start int64
	if ge.k > 0 || h != nil {
		start = obs.Now()
	}
	var t *Team
	lease := obs.LeaseBypass
	switch {
	case ge.narrow:
		lease = obs.LeaseSolo
		if t = g.solo.Swap(nil); t == nil {
			t = newTeam(1)
		}
	case pooled:
		t, lease = acquireTeam(n)
	default:
		// Degraded admission entry: a cold team that bypasses the pool.
		t = newTeam(n)
	}
	t.beginLease(parent, level, body, arg)
	t.timeWake = ge.k > 0
	finished := false
	defer func() {
		if !finished {
			// The master escaped the lease via runtime.Goexit (worker
			// panics are recorded, never propagated, by runWorker): join
			// the workers' round, drain stragglers so queued futures still
			// resolve, then retire the team — its lease never completed,
			// so it must not be recycled. The retirement itself is
			// deferred one level deeper: a drained straggler task may
			// itself call runtime.Goexit, and aborting this cleanup
			// before the retire would leak the parked worker goroutines
			// and leave completed=false on an undrainable team.
			defer func() {
				t.completed.Store(true)
				if h != nil {
					h.Region(t.workers[0].gid, t.tid, level, n, lease, start, obs.Now())
				}
				t.endLease()
				retireTeam(t)
			}()
			t.fail()
			t.wg.Wait()
			t.drainStragglers(t.workers[0])
		}
	}()
	for i := 1; i < n; i++ {
		t.workers[i].wake <- struct{}{}
	}
	t.runWorker(t.workers[0])
	t.wg.Wait()
	t.drainStragglers(t.workers[0])
	hand := t.wokeAt.Load() - start
	finished = true
	t.completed.Store(true)
	var end int64
	if ge.k > 0 || h != nil {
		end = obs.Now()
	}
	if h != nil {
		h.Region(t.workers[0].gid, t.tid, level, n, lease, start, end)
	}
	panicked, panicVal := t.panicked.Load(), t.panicVal
	t.endLease()
	switch {
	case panicked || t.poisoned.Load():
		retireTeam(t)
	case ge.narrow:
		if !HotTeamsEnabled() || !g.solo.CompareAndSwap(nil, t) {
			t.destroy()
		}
	case pooled:
		releaseTeam(t)
	default:
		// Degraded admission entry: its one-worker team bypassed the pool
		// on the way in and is simply discarded on the way out.
		t.destroy()
	}
	if panicked {
		panic(panicVal)
	}
	if ge.k > 0 {
		g.done(ge, end-start, hand)
	}
}

// beginLease prepares a team — fresh or cached — for one region entry.
// The per-worker reset restores the observable state of a brand-new team
// (encounter counters, thread-locals and task scopes start empty, so a
// reused team is indistinguishable from a cold-spawned one) while the
// expensive structure — goroutines, deques, barrier, task group, the
// dependence tracker and its free lists — carries over. The writes here
// happen before any worker runs: the wake-channel send orders them for
// the spawned workers, and the master reads them on the entering
// goroutine itself.
//
// Nothing here clears construct state: encounter slots carry the lease
// epoch in their tag and worker cursors reset on first touch in a new
// lease (encounter.go), so what an earlier lease left behind reads as
// free. That assumes the standing work-sharing contract: a goroutine that
// outlived its region entry may still Spawn (the task joins whichever entry
// is current, or the rescue goroutine), but running work-sharing,
// single/master or thread-local constructs from it is undefined.
func (t *Team) beginLease(parent *Worker, level int, body func(*Worker, any), arg any) {
	t.parent.Store(parent)
	t.level.Store(int32(level))
	t.body, t.arg = body, arg
	t.epoch.Add(1)
	t.completed.Store(false)
	t.panicked.Store(false)
	t.panicVal = nil
	t.wg.Add(t.Size - 1)
	if len(t.records) > maxConstructs {
		t.records = nil
		for _, w := range t.workers {
			w.cursors = nil
		}
	}
	for _, w := range t.workers {
		w.activeFor = w.activeFor[:0]
		w.curGroup.Store(nil)
	}
}

// endLease drops the lease's references so a cached team pins neither the
// region body, its argument, nor the parent lineage between entries.
func (t *Team) endLease() {
	t.body, t.arg = nil, nil
	t.parent.Store(nil)
}

// recordPanic stores the first panic of the current lease round.
func (t *Team) recordPanic(r any) {
	if t.panicked.CompareAndSwap(false, true) {
		t.panicVal = r
	}
	t.fail()
}

// runWorker executes one lease round on w: establish the worker context,
// run the body, then help drain the team's deferred tasks (the implicit
// region-end scheduling point). A panic is recorded for the master to
// re-raise after the join; it never unwinds past this frame, so a pooled
// worker goroutine survives to serve later leases.
func (t *Team) runWorker(w *Worker) {
	defer func() {
		if r := recover(); r != nil && r != any(teamFailed{}) {
			t.recordPanic(r)
		}
	}()
	glsContexts.Add(1)
	tok := current.PushSlot(w.slot)
	defer func() {
		current.Restore(tok)
		glsContexts.Add(-1)
	}()
	if h := obs.Active(); h.Tracing() {
		// Deferred, so a panicking or Goexit-ing share still records its
		// slice.
		start, level := obs.Now(), t.Level()
		defer func() { h.Implicit(w.gid, t.tid, level, start, obs.Now()) }()
	}
	t.body(w, t.arg)
	// Implicit region-end join for deferred tasks: each worker helps
	// execute queued tasks (its own, then stolen) until none remain
	// anywhere in the team.
	if g := t.tasks.Load(); g != nil {
		g.helpWait(w)
	}
}

// workerLoop is the persistent goroutine behind one non-master worker:
// park on the wake channel, serve one lease round, park again. Closing
// the channel retires the goroutine. If a round escapes through
// runtime.Goexit — which recover cannot intercept — the deferred check
// still signals the join and poisons the team, so the lease holder
// retires it instead of recycling a team with a dead worker.
func (t *Team) workerLoop(w *Worker) {
	for range w.wake {
		if t.timeWake {
			t.wokeAt.Store(obs.Now())
		}
		roundDone := false
		func() {
			defer func() {
				if !roundDone {
					t.poisoned.Store(true)
					t.fail()
				}
				t.wg.Done()
			}()
			t.runWorker(w)
			roundDone = true
		}()
		if !roundDone {
			return
		}
	}
}

// drainStragglers runs, on the master, any task still queued after the
// join — stragglers spawned from goroutines that inherited a worker
// context around the join, or tasks left behind because worker quiesces
// were skipped by a panic. Futures must resolve even when the region
// fails, and a team must be quiescent before it is recycled or retired;
// a panicking task is recorded like a worker panic and the drain resumes,
// so cleanup always completes and the first panic re-raises.
func (t *Team) drainStragglers(master *Worker) {
	g := t.tasks.Load()
	if g == nil || g.Pending() == 0 {
		return
	}
	glsContexts.Add(1)
	tok := current.PushSlot(master.slot)
	// Deferred, not straight-line: a drained task may exit via
	// runtime.Goexit, and skipping the Restore would leave glsContexts
	// permanently raised (killing the sequential fast path) and the
	// master slot on the chain — which the retry drain in RegionArg's
	// Goexit defer would then push onto itself.
	defer func() {
		current.Restore(tok)
		glsContexts.Add(-1)
	}()
	for {
		clean := true
		func() {
			defer func() {
				if r := recover(); r != nil {
					clean = false
					t.recordPanic(r)
				}
			}()
			g.helpWait(master)
		}()
		if clean {
			break
		}
	}
}

// newTeam builds a team of n workers whose n-1 non-master goroutines are
// spawned immediately and parked awaiting their first lease.
func newTeam(n int) *Team {
	t := &Team{
		Size:    n,
		tid:     teamTIDs.Add(1),
		barrier: NewBarrier(n),
		workers: make([]*Worker, n),
	}
	t.barrier.owner = t
	for i := 0; i < n; i++ {
		t.workers[i] = newWorker(i, t)
	}
	for i := 1; i < n; i++ {
		w := t.workers[i]
		w.wake = make(chan struct{}, 1)
		go t.workerLoop(w)
	}
	return t
}

// destroy retires a team: the worker goroutines are released (their wake
// channels close) and the team is dropped for collection.
func (t *Team) destroy() {
	if t.retired {
		return
	}
	t.retired = true
	if h := obs.Active(); h.Tracing() {
		h.TeamRetire(t.tid, t.Size)
	}
	for _, w := range t.workers[1:] {
		close(w.wake)
	}
}

func newWorker(id int, t *Team) *Worker {
	w := &Worker{ID: id, Team: t, gid: obs.WorkerID(workerGIDs.Add(1) - 1)}
	w.rng.Store(uint64(id)*0x9e3779b97f4a7c15 + 0x1234567887654321)
	w.slot = current.NewSlot(w)
	return w
}

// String implements fmt.Stringer for diagnostics.
func (w *Worker) String() string {
	return fmt.Sprintf("worker %d/%d (level %d)", w.ID, w.Team.Size, w.Team.Level())
}
