package rt

import (
	"sync"
	"sync/atomic"

	"aomplib/internal/obs"
)

// TaskGroup tracks asynchronous activities spawned by the @Task and
// @FutureTask constructs. Unlike sync.WaitGroup it tolerates Add after a
// concurrent Wait has begun (new tasks simply extend the wait), which is
// the semantics @TaskWait needs when tasks spawn tasks.
//
// Runtime v2: inside a parallel region, spawned tasks are not goroutines —
// they are queued on the spawning worker's deque and executed at task
// scheduling points (TaskWait, Future.Get, TaskYield, region end) by
// whichever team worker reaches them first, with idle workers stealing
// from busy ones. Tasks with unsatisfied dependence clauses (@Depend) park
// in the team's dependence tracker and enter a deque only when released
// (depend.go). events counts queue activity so helping waiters never sleep
// through a freshly pushed task.
//
// The counts are atomics and the mutex is taken only around a sleep: a
// waiter about to park bumps sleepers under mu, then re-reads events and
// pending; a waker changes pending or events, then reads sleepers and, if
// anyone sleeps, broadcasts under mu. Atomics are sequentially consistent,
// so either the waker sees the sleeper (and its broadcast, ordered by mu
// after the sleeper's re-check, wakes it) or the sleeper's re-read sees the
// waker's change and does not park. A spawn → taskwait round trip with
// nobody asleep takes no lock here.
type TaskGroup struct {
	pending  atomic.Int64
	events   atomic.Uint64
	awaiters atomic.Int32 // Future.Get waiters parked in awaitEvent
	sleepers atomic.Int32 // goroutines parked on cond, or about to
	mu       sync.Mutex
	cond     sync.Cond

	// parent chains a TaskGroupScope to its enclosing scope and,
	// ultimately, the team group: every Add/Done/notify propagates up, so
	// scope tasks keep the team group pending and idle teammates — parked
	// in the region-end join on the team group — wake up and steal them.
	// Without the chain a scope's tasks would be invisible to the team
	// join and execute only on the scoping worker.
	parent *TaskGroup
}

// NewTaskGroup returns an empty group.
func NewTaskGroup() *TaskGroup {
	g := &TaskGroup{}
	g.cond.L = &g.mu
	return g
}

// newScopedGroup returns an empty group chained to parent.
func newScopedGroup(parent *TaskGroup) *TaskGroup {
	g := NewTaskGroup()
	g.parent = parent
	return g
}

// Add registers n new pending tasks, here and in every enclosing group.
func (g *TaskGroup) Add(n int) {
	for p := g; p != nil; p = p.parent {
		p.pending.Add(int64(n))
	}
}

// notify records queue activity and wakes waiters — up the whole chain, so
// team-group waiters see scope-task pushes — letting them (re)try to claim
// queued work. Called after a task becomes visible in a deque.
func (g *TaskGroup) notify() {
	for p := g; p != nil; p = p.parent {
		p.events.Add(1)
		p.wake()
	}
}

// wake broadcasts to parked waiters, if any; the caller has already
// published the change they wait for.
func (g *TaskGroup) wake() {
	if g.sleepers.Load() > 0 {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// Done marks one task complete, here and in every enclosing group. Waiters
// are woken when a group drains or when a Future.Get is parked on it (its
// producer may just have resolved even though unrelated tasks are still
// pending).
func (g *TaskGroup) Done() {
	for p := g; p != nil; p = p.parent {
		p.doneOne()
	}
}

func (g *TaskGroup) doneOne() {
	n := g.pending.Add(-1)
	if n < 0 {
		panic("rt: TaskGroup counter went negative")
	}
	if n == 0 || g.awaiters.Load() > 0 {
		g.events.Add(1)
		g.wake()
	}
}

// Wait blocks until no tasks are pending — the join point between the
// spawning and the spawned activities (@TaskWait). It does not execute
// queued tasks itself; workers inside a region should use the package
// function TaskWait, which helps drain the queues while waiting.
func (g *TaskGroup) Wait() {
	if g.pending.Load() == 0 {
		return
	}
	g.mu.Lock()
	g.sleepers.Add(1)
	for g.pending.Load() > 0 {
		g.cond.Wait()
	}
	g.sleepers.Add(-1)
	g.mu.Unlock()
}

// helpWait drains tasks until none are pending, executing queued work on w
// instead of sleeping whenever any is visible. This is both the @TaskWait
// implementation for workers and the implicit join at region end. Parked
// dependent tasks are invisible until released; the release pushes them to
// a deque and bumps events, so the waiter wakes and claims them.
func (g *TaskGroup) helpWait(w *Worker) {
	for g.pending.Load() > 0 {
		v := g.events.Load()
		if t := w.findTask(); t != nil {
			w.runTask(t)
			t.decRef()
			continue
		}
		// Sleep only if nothing was queued or completed since the failed
		// claim above — otherwise retry immediately (a task published
		// between findTask and the sleep would be lost to a sleeper).
		g.mu.Lock()
		g.sleepers.Add(1)
		if g.pending.Load() > 0 && g.events.Load() == v {
			g.cond.Wait()
		}
		g.sleepers.Add(-1)
		g.mu.Unlock()
	}
}

// eventStamp snapshots the activity counter for a later awaitEvent.
func (g *TaskGroup) eventStamp() uint64 { return g.events.Load() }

// awaitEvent blocks until queue activity after stamp v, the group drains,
// or stop reports true. The awaiters count makes every Done bump events
// while a getter is parked here, so a producer resolving amid unrelated
// pending tasks cannot be slept through: the producer resolves, then reads
// awaiters, while the getter counts itself, then reads pending and stop.
func (g *TaskGroup) awaitEvent(v uint64, stop func() bool) {
	g.awaiters.Add(1)
	g.mu.Lock()
	g.sleepers.Add(1)
	for g.events.Load() == v && g.pending.Load() > 0 && !stop() {
		g.cond.Wait()
	}
	g.sleepers.Add(-1)
	g.mu.Unlock()
	g.awaiters.Add(-1)
}

// Pending reports the number of outstanding tasks (diagnostics/tests).
func (g *TaskGroup) Pending() int { return int(g.pending.Load()) }

// globalTasks serves @Task used outside any parallel region ("This
// construct can also be used outside the parallel region").
var globalTasks = NewTaskGroup()

// taskPool recycles task objects so steady-state spawning inside regions
// allocates nothing (the dependence nodes of @Depend are recycled on the
// tracker's own free lists for the same reason). Tasks backing a Future
// are excluded: the future retains its task pointer indefinitely.
var taskPool = sync.Pool{New: func() any { return new(task) }}

// newTask draws a pooled task carrying two references: the queue (deque,
// dependence tracker or goroutine) slot and the spawner's temporary hold.
func newTask(fn func(any), arg any) *task {
	t := taskPool.Get().(*task)
	t.fn, t.arg = fn, arg
	t.pooled = true
	t.refs.Store(2)
	t.state.Store(taskReady)
	return t
}

// spawnGroup returns the group new tasks of this worker join: the
// innermost TaskGroupScope when one is active, the team group otherwise.
func (w *Worker) spawnGroup() *TaskGroup {
	if g := w.curGroup.Load(); g != nil {
		return g
	}
	return w.Team.Tasks()
}

// spawn defers t, which holds its two references, under the task scope of
// worker w — the one deferral routine behind every spawner. On a live
// team the task joins w's group and tracker; outside a region (w nil, or
// its team completed) it joins globalTasks and globalDeps. A task whose
// clauses are unsatisfied parks in the tracker, which keeps the queue
// reference until releaseLocked makes it runnable. A ready team task is
// pushed to w's deque; a ready out-of-region task is claimed and run on
// its own goroutine. d is nil for a task without clauses; kind is
// TaskDeferred or TaskFuture, and clauses make it the dependent variant.
func spawn(w *Worker, t *task, d *Deps, kind obs.TaskKind) {
	if w != nil && w.Team.completed.Load() {
		w = nil
	}
	g := globalTasks
	if w != nil {
		g = w.spawnGroup()
	}
	t.group, t.spawner = g, w
	g.Add(1)
	if h := obs.Active(); h != nil {
		if d != nil {
			kind += obs.TaskDependent
		}
		stampTask(h, t, kind)
	}
	switch {
	case d != nil && !w.tracker().enqueue(t, d):
		// Parked: the tracker holds the queue reference.
	case w == nil:
		// The goroutine is the task's queue and takes its reference;
		// nobody else has seen t, so the claim wins.
		t.claim()
		goExec(t)
	default:
		w.deque.push(t)
		g.notify()
		// The team may have completed (and drained) between the check
		// above and the push; reclaim the task so it cannot be stranded on
		// a dead team's deque. The spawner's reference transfers to the
		// rescue goroutine.
		if w.Team.completed.Load() && t.claim() {
			goExec(t)
			return
		}
	}
	t.decRef()
}

// goExec runs an already-claimed task on its own goroutine, which then
// drops the reference it was handed.
func goExec(t *task) {
	go func() {
		t.exec()
		t.decRef()
	}()
}

// TaskWait joins all outstanding tasks of the caller's scope (@TaskWait).
// Inside a region the caller executes queued tasks while waiting (helping,
// so the join cannot starve); outside it simply blocks on the global group.
func TaskWait() {
	if w := Current(); w != nil {
		if g := w.curGroup.Load(); g != nil {
			g.helpWait(w)
			return
		}
		if g := w.Team.tasks.Load(); g != nil {
			g.helpWait(w)
		}
		return
	}
	globalTasks.Wait()
}

// TaskYield is an explicit task scheduling point: the calling worker
// executes up to n queued tasks of its team (its own first, then stolen).
// It reports how many ran. Outside a parallel region it is a no-op — tasks
// spawned there run on their own goroutines already — and so it is on a
// team of one, whose depend-free tasks ran at their spawn.
func TaskYield(n int) int {
	w := Current()
	if w == nil {
		return 0
	}
	ran := 0
	for ran < n {
		t := w.findTask()
		if t == nil {
			break
		}
		if w.runTask(t) {
			ran++
		}
		t.decRef()
	}
	return ran
}

// Undeferred reports whether a task without clauses spawned on w runs at
// its spawn, on the spawner's goroutine: w's team is a team of one that
// has not completed. OpenMP lets the encountering thread execute a task
// immediately instead of deferring it (5.2 §12.5, undeferred tasks), and
// with no team-mate to hand it to deferral only adds cost. A true answer
// records the spawn (an inline task event), so the caller must then run
// the task.
func Undeferred(w *Worker) bool {
	if w == nil || w.Team.Size != 1 || w.Team.completed.Load() {
		return false
	}
	if h := obs.Active(); h != nil {
		h.TaskInline(w.gid, nextTaskTraceID())
	}
	return true
}

// Spawn runs body asynchronously under the caller's task scope (@Task):
// SpawnArg from the caller's worker, without clauses.
func Spawn(body func()) { SpawnArg(Current(), plainTask, body, Deps{}) }

// plainTask adapts a closure to the argument-carrying form without
// allocating (func values are pointer-shaped), like plainBody for regions.
func plainTask(arg any) { arg.(func())() }

// SpawnArg runs fn(arg) asynchronously under the task scope of worker w
// (the caller's, as Current reports it; nil outside a region), ordered
// after the previously spawned tasks its dependence clauses d conflict
// with (@Task, @Depend). fn is typically a static function and arg a
// pooled per-spawn record, so spawning needs no closure — the RegionArg
// split, for tasks.
//
// Inside a parallel region of two or more workers the task is deferred: it
// is queued on w's deque (or parked in the team's dependence tracker until
// its predecessors retire) and executed at a task scheduling point by a
// team worker — possibly a different one than the spawner, exactly as an
// OpenMP task may be executed by any thread of the team. The task observes
// the worker context of its executor. On a team of one a task without
// clauses is undeferred: fn runs before SpawnArg returns, and a panic in it
// surfaces at the spawn. Outside any region (or once the spawning team has
// completed) the task runs on its own goroutine under the global scope.
func SpawnArg(w *Worker, fn func(any), arg any, d Deps) {
	if !d.empty() {
		spawn(w, newTask(fn, arg), &d, obs.TaskDeferred)
	} else if Undeferred(w) {
		fn(arg)
	} else {
		spawn(w, newTask(fn, arg), nil, obs.TaskDeferred)
	}
}

// Future is the synchronisation object behind @FutureTask/@FutureResult:
// the getter of the returned object blocks until the asynchronous method
// has produced its value.
type Future struct {
	done chan struct{}
	val  any
	task *task // the deferred producer, when team-queued; claimable by Get
}

// NewFuture returns an unresolved future.
func NewFuture() *Future { return &Future{done: make(chan struct{})} }

// closed is the done channel of every future resolved at its creation.
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// ResolvedFuture returns a future already holding v; its getter never
// blocks. It backs the sequential semantics of @FutureTask methods whose
// aspect is unplugged, and undeferred producers on a team of one.
func ResolvedFuture(v any) *Future { return &Future{done: closed, val: v} }

// SpawnFuture is SpawnArg for a value: it returns a Future resolved with
// fn's result (@FutureTask). The future's getter is a scheduling point, so
// a worker that demands the value executes queued tasks (including,
// typically, this one) instead of deadlocking on it; a getter reaching a
// producer still parked behind its clauses helps run other tasks
// (transitively, the predecessors) instead of running it early. On a team
// of one a producer without clauses runs at the spawn and the future
// returned is already resolved.
func SpawnFuture(w *Worker, fn func() any, d Deps) *Future {
	clauses := &d
	if d.empty() {
		if Undeferred(w) {
			return ResolvedFuture(fn())
		}
		clauses = nil
	}
	f := NewFuture()
	t := &task{fn: plainTask, arg: func() { // retained by f: never pooled
		f.val = fn()
		close(f.done)
	}}
	t.refs.Store(2)
	f.task = t
	spawn(w, t, clauses, obs.TaskFuture)
	return f
}

// Get blocks until the future resolves and returns its value
// (@FutureResult: getters "act as synchronisation points"). A worker
// calling Get helps execute queued team tasks while the value is not yet
// available; if the producing task is queued and claimable — possibly on
// an enclosing team, unreachable from a nested region's deques — Get
// claims and executes it directly. A producer parked behind unsatisfied
// dependence clauses is not claimable; the getter then drains the
// producer's own team (running, transitively, the predecessors) and, when
// nothing is visible anywhere, parks until queue activity. Demanding a
// future therefore never deadlocks on its own deferred producer.
func (f *Future) Get() any {
	if f.Resolved() {
		return f.val
	}
	w := Current()
	for {
		if w != nil {
			f.help(w)
		}
		if f.Resolved() {
			break
		}
		t := f.task
		if t == nil {
			<-f.done
			break
		}
		v := t.group.eventStamp()
		var ran bool
		if w != nil {
			ran = w.runTask(t)
		} else {
			ran = t.run()
		}
		if ran || f.Resolved() {
			break
		}
		if w == nil {
			// Not a team worker: claiming the producer itself (above) is
			// the only execution this goroutine may take on — running
			// arbitrary team tasks here would strip them of their team
			// context, letting their sub-spawns escape the region-end
			// join. The team's own workers make progress; just block.
			<-f.done
			break
		}
		// Help the producer's team directly: its predecessors live on that
		// team's deques, which w.findTask cannot see from a nested team.
		if s := t.spawner; s != nil {
			if st := stealAnyTask(s.Team); st != nil {
				w.runTask(st)
				st.decRef()
				continue
			}
		}
		// Producer parked or in flight elsewhere and no queued work is
		// visible: wait for queue activity or resolution, then retry.
		t.group.awaitEvent(v, f.Resolved)
	}
	return f.val
}

// stealAnyTask pops a queued task from any deque of the given team, or nil.
func stealAnyTask(team *Team) *task {
	for _, v := range team.workers {
		if t := v.deque.stealTop(); t != nil {
			return t
		}
	}
	return nil
}

// help runs queued tasks on w until the future resolves or no queued work
// is visible (in which case the producer is in flight, parked behind
// dependences, or on another team — Get handles those cases).
func (f *Future) help(w *Worker) {
	for {
		select {
		case <-f.done:
			return
		default:
		}
		t := w.findTask()
		if t == nil {
			return
		}
		w.runTask(t)
		t.decRef()
	}
}

// Resolved reports whether the value is available without blocking.
func (f *Future) Resolved() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// RWLock is the readers/writer mechanism (@Reader/@Writer): multiple
// readers, one exclusive writer. It is a thin name over sync.RWMutex kept
// as a distinct type so aspects can register and report it.
type RWLock struct{ sync.RWMutex }
