package rt

import (
	"sync"
	"sync/atomic"

	"aomplib/internal/obs"
)

// Task lifecycle states. A depend-free task is born taskReady; a task with
// unsatisfied dependence edges is born taskParked and becomes taskReady
// only when its last predecessor retires (depend.go). Parked tasks are not
// claimable: a future's getter that reaches its producer directly backs
// off instead of running it ahead of its predecessors.
const (
	taskReady   = 0
	taskClaimed = 1
	taskParked  = 2
)

// task is one deferred activity spawned by @Task or @FutureTask (spawn,
// tasks.go). Inside a parallel region it is queued on the spawning
// worker's deque and executed by whichever team worker reaches it first —
// the spawner at a scheduling point, or a sibling that steals it; outside
// one it runs on its own goroutine. state makes execution claimable out
// of band: a future's getter (possibly on a different, nested team) or a
// straggler spawner can take ownership directly, and whoever later pops the
// queued reference finds it already claimed and skips it.
//
// refs counts live references (deque/tracker slot, spawner, future) so
// pooled tasks can be recycled the moment the last holder lets go; tasks
// backing a Future are never pooled, because the future retains its task
// pointer indefinitely.
type task struct {
	fn      func(any) // with arg: a static function and its state, so a spawn needs no closure
	arg     any
	group   *TaskGroup
	spawner *Worker  // deque that receives the task when released; nil = global scope
	node    *depNode // dependence bookkeeping; nil for depend-free tasks
	traceID uint64   // observability identity (flow arrows); 0 with telemetry off
	created int64    // obs.Now at creation, for the spawn latency; 0 with telemetry off
	state   atomic.Int32
	refs    atomic.Int32
	pooled  bool
}

// claim takes execution ownership; exactly one caller wins. Parked tasks
// (unsatisfied dependences) are not claimable.
func (t *task) claim() bool { return t.state.CompareAndSwap(taskReady, taskClaimed) }

// unpark makes a parked task claimable again (its last predecessor
// retired). Reports whether this caller performed the transition.
func (t *task) unpark() bool { return t.state.CompareAndSwap(taskParked, taskReady) }

// run claims and executes the task, reporting whether this caller executed
// it (false: someone else already claimed it, or it is parked).
func (t *task) run() bool {
	if !t.claim() {
		return false
	}
	t.exec()
	return true
}

// exec executes an already-claimed task, guaranteeing — even if the body
// panics (the panic then propagates to the executing worker, where the
// region machinery re-raises it on the master) — that the task retires.
// With a consumer on, start is the execution's first boundary read.
func (t *task) exec() {
	h, gid := obs.Active(), obs.NoWorker
	var start int64
	if h != nil {
		gid, start = curGID(), obs.Now()
	}
	defer t.retire(h, gid, start)
	t.fn(t.arg)
}

// retire completes the task's bookkeeping: successors of its dependence
// node are released, the run is reported — after the releases, so they
// order inside the task's slice — on the executing context's track, and
// then the group is signalled, so a join that returns has seen every
// completion it waited for counted. Runs exactly once per executed task
// (claim won exactly once), panic or not.
func (t *task) retire(h *obs.Sinks, gid obs.WorkerID, start int64) {
	if n := t.node; n != nil {
		t.node = nil
		n.tr.retire(n)
	}
	if h != nil {
		var end int64
		if h.Tracing() {
			end = obs.Now()
		}
		h.TaskRun(gid, t.traceID, t.created, start, end)
	}
	t.group.Done()
}

// decRef drops one reference; the last dropper recycles pooled tasks.
func (t *task) decRef() {
	if t.refs.Add(-1) == 0 && t.pooled {
		t.fn, t.arg, t.group, t.spawner, t.node = nil, nil, nil, nil, nil
		t.traceID, t.created = 0, 0
		t.state.Store(taskReady)
		taskPool.Put(t)
	}
}

// deque is a double-ended task queue owned by one worker. The owner pushes
// and pops at the bottom (LIFO, keeping its working set hot), thieves take
// from the top (FIFO, stealing the oldest — typically largest — work
// first), the classic work-stealing discipline. Deques persist across
// team leases: a clean region end drains every live task, so the next
// lease inherits an empty ring with its grown capacity — reuse, not
// reallocation. (Claimed-and-skipped references from a straggler spawn
// may remain; popBottom/stealTop callers already tolerate them.) A mutex guards the ring:
// steals are rare relative to pushes and the critical sections are a few
// instructions, so a lock-free Chase-Lev buys little here while a mutex
// keeps the structure trivially correct under the race detector and allows
// spawn-from-inherited-context goroutines to share the bottom end safely.
type deque struct {
	mu   sync.Mutex
	buf  []*task
	head int // index of the top (oldest) element
	n    int // number of queued tasks
}

// push adds t at the bottom of the deque, growing the ring as needed.
func (d *deque) push(t *task) {
	d.mu.Lock()
	if d.n == len(d.buf) {
		grown := make([]*task, max(8, 2*len(d.buf)))
		for i := 0; i < d.n; i++ {
			grown[i] = d.buf[(d.head+i)%len(d.buf)]
		}
		d.buf, d.head = grown, 0
	}
	d.buf[(d.head+d.n)%len(d.buf)] = t
	d.n++
	d.mu.Unlock()
}

// popBottom removes and returns the most recently pushed task, or nil.
func (d *deque) popBottom() *task {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return nil
	}
	d.n--
	i := (d.head + d.n) % len(d.buf)
	t := d.buf[i]
	d.buf[i] = nil
	d.mu.Unlock()
	return t
}

// stealTop removes and returns the oldest queued task, or nil.
func (d *deque) stealTop() *task {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return nil
	}
	t := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	d.mu.Unlock()
	return t
}

// size reports the number of queued tasks (diagnostics/tests).
func (d *deque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// findTask returns the next task this worker should execute: its own
// newest first, then — when its deque is empty — one stolen from a random
// sibling. Returns nil when no queued work is visible anywhere in the team.
func (w *Worker) findTask() *task {
	if t := w.deque.popBottom(); t != nil {
		return t
	}
	ws := w.Team.workers
	if len(ws) <= 1 {
		return nil
	}
	h := obs.Active()
	if h != nil {
		h.StealAttempt(w.gid)
	}
	start := int(w.nextRand() % uint64(len(ws)))
	for i := 0; i < len(ws); i++ {
		v := ws[(start+i)%len(ws)]
		if v == w {
			continue
		}
		if t := v.deque.stealTop(); t != nil {
			if h != nil {
				h.StealSuccess(w.gid, t.traceID, v.gid)
			}
			return t
		}
	}
	return nil
}

// runTask executes t on w with the task's group adopted as the worker's
// current spawn scope, so activities spawned by the task body join the
// group the task belongs to (a TaskGroupScope includes descendant tasks). It
// reports whether this caller executed the task.
//
// Adoption is strictly same-team: when a task of an enclosing team is
// executed from a nested team (a future's getter helping across regions),
// adopting its group would make sub-spawns join the enclosing team's
// group while their tasks land on the executor's nested deque — a deque
// the enclosing team's join can never see, hence a deadlock. Cross-team
// executions therefore keep the executor's own scope: sub-spawns stay
// consistent (group and deque on the executing team) and are joined by
// the executing region's end, as in the pre-dataflow runtime.
func (w *Worker) runTask(t *task) bool {
	if t.spawner == nil || t.spawner.Team != w.Team {
		return t.run()
	}
	prev := w.curGroup.Swap(t.group)
	defer w.curGroup.Store(prev)
	return t.run()
}

// nextRand is a per-worker xorshift64 used for steal-victim selection; no
// locking, no global rand contention. The state is atomic only so that
// goroutines sharing an inherited worker context stay race-clean — the
// sequence quality does not matter, victim choice just needs to spread.
func (w *Worker) nextRand() uint64 {
	x := w.rng.Load()
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng.Store(x)
	return x
}
