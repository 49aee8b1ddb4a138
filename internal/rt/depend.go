package rt

import (
	"sync"

	"aomplib/internal/obs"
)

// This file implements dataflow task scheduling (@Depend): tasks declare
// in/out/inout clauses on address keys, and the runtime derives the
// OpenMP 4.x dependence edges from the spawn order — a task with an in
// clause waits for the previous writer of that address; a task with an
// out/inout clause waits for the previous writer and all readers since.
// Tasks with unsatisfied edges park in the team's dependence tracker
// instead of a deque; when the last predecessor retires they are released
// to the spawning worker's deque, where they are claimable and steal-safe
// like any other deferred task, so helping waits and nested teams keep
// working.

// Deps carries the dependence clauses of one spawn (@Depend{In, Out,
// InOut}). Keys are compared with ==; use addresses (&x, &a[i]) so
// distinct objects never alias. nil elements are ignored, which lets
// callers express boundary cases ("no left neighbour") without building
// fresh slices. In/out edge derivation treats Out and InOut identically;
// the split mirrors the OpenMP clauses and documents intent.
type Deps struct {
	In, Out, InOut []any
}

func (d Deps) empty() bool { return len(d.In) == 0 && len(d.Out) == 0 && len(d.InOut) == 0 }

// depNode is the dependence bookkeeping of one task: remaining predecessor
// count, successor list, and the keys it touched (for retirement cleanup).
// Nodes are recycled on a per-tracker free list so steady-state dataflow
// spawning allocates nothing. All fields are guarded by the tracker mutex.
type depNode struct {
	tr      *depTracker
	task    *task
	npred   int
	succs   []*depNode
	keys    []any
	retired bool
}

// depObj is the per-address dependence state: the last (unretired) writer
// and the readers since. Dropped — and recycled — once both are gone, so
// long-running regions don't accumulate per-address state.
type depObj struct {
	lastWriter *depNode
	readers    []*depNode
}

// depTracker is the per-team (or global) dependence graph. One mutex
// guards the whole structure: edge construction and retirement are a few
// pointer operations, and tasks heavy enough to want @Depend dwarf the
// critical sections.
type depTracker struct {
	mu        sync.Mutex
	objs      map[any]*depObj
	freeNodes []*depNode
	freeObjs  []*depObj
}

func newDepTracker() *depTracker {
	return &depTracker{objs: make(map[any]*depObj)}
}

// globalDeps orders dependent tasks spawned outside any parallel region;
// released tasks run on their own goroutines, like all out-of-region tasks.
var globalDeps = newDepTracker()

// tracker returns the dependence tracker of w's team, or globalDeps for a
// nil w (outside a region).
func (w *Worker) tracker() *depTracker {
	if w == nil {
		return globalDeps
	}
	return w.Team.depTracker()
}

func (tr *depTracker) getNode(t *task) *depNode {
	if n := len(tr.freeNodes); n > 0 {
		nd := tr.freeNodes[n-1]
		tr.freeNodes[n-1] = nil
		tr.freeNodes = tr.freeNodes[:n-1]
		nd.task = t
		return nd
	}
	return &depNode{tr: tr, task: t}
}

func (tr *depTracker) putNode(n *depNode) {
	for i := range n.succs {
		n.succs[i] = nil
	}
	for i := range n.keys {
		n.keys[i] = nil
	}
	n.task, n.succs, n.keys = nil, n.succs[:0], n.keys[:0]
	n.npred, n.retired = 0, false
	tr.freeNodes = append(tr.freeNodes, n)
}

func (tr *depTracker) getObj() *depObj {
	if n := len(tr.freeObjs); n > 0 {
		o := tr.freeObjs[n-1]
		tr.freeObjs[n-1] = nil
		tr.freeObjs = tr.freeObjs[:n-1]
		return o
	}
	return &depObj{}
}

func (tr *depTracker) putObj(o *depObj) {
	for i := range o.readers {
		o.readers[i] = nil
	}
	o.lastWriter, o.readers = nil, o.readers[:0]
	tr.freeObjs = append(tr.freeObjs, o)
}

func (tr *depTracker) obj(key any) *depObj {
	o := tr.objs[key]
	if o == nil {
		o = tr.getObj()
		tr.objs[key] = o
	}
	return o
}

// edge records pred → n. Duplicate edges (two clauses meeting the same
// predecessor) are fine: the increment and the retirement decrement stay
// symmetric.
func edge(pred, n *depNode) {
	pred.succs = append(pred.succs, n)
	n.npred++
}

// enqueue registers t's dependence clauses, building edges from the
// not-yet-retired predecessors the clauses imply. It reports whether the
// task is immediately runnable; if not, the task has been parked (the
// tracker inherits the queue reference) and will be released to the
// spawner's deque when its last predecessor retires.
func (tr *depTracker) enqueue(t *task, d *Deps) bool {
	tr.mu.Lock()
	n := tr.getNode(t)
	t.node = n
	for _, k := range d.In {
		if k == nil {
			continue
		}
		o := tr.obj(k)
		n.keys = append(n.keys, k)
		if w := o.lastWriter; w != nil && !w.retired {
			edge(w, n)
		}
		o.readers = append(o.readers, n)
	}
	tr.writeClause(n, d.Out)
	tr.writeClause(n, d.InOut)
	ready := n.npred == 0
	if !ready {
		t.state.Store(taskParked)
	}
	tr.mu.Unlock()
	return ready
}

// writeClause applies one out/inout key list: the node waits for the last
// writer and every reader since, then becomes the last writer itself.
func (tr *depTracker) writeClause(n *depNode, keys []any) {
	for _, k := range keys {
		if k == nil {
			continue
		}
		o := tr.obj(k)
		n.keys = append(n.keys, k)
		if w := o.lastWriter; w != nil && !w.retired {
			edge(w, n)
		}
		for _, r := range o.readers {
			if r != n && !r.retired {
				edge(r, n)
			}
		}
		for i := range o.readers {
			o.readers[i] = nil
		}
		o.readers = o.readers[:0]
		o.lastWriter = n
	}
}

// retire finalises n after its task executed: per-address state it pinned
// is cleaned up, each successor loses one predecessor, and successors that
// reach zero are released. Runs for panicking tasks too (task.retire is
// deferred), so a failing predecessor releases — never deadlocks — its
// successors.
func (tr *depTracker) retire(n *depNode) {
	tr.mu.Lock()
	n.retired = true
	for _, k := range n.keys {
		o := tr.objs[k]
		if o == nil {
			continue
		}
		for i, r := range o.readers {
			if r == n {
				last := len(o.readers) - 1
				o.readers[i] = o.readers[last]
				o.readers[last] = nil
				o.readers = o.readers[:last]
				break
			}
		}
		if o.lastWriter == n {
			o.lastWriter = nil
		}
		if o.lastWriter == nil && len(o.readers) == 0 {
			delete(tr.objs, k)
			tr.putObj(o)
		}
	}
	for _, s := range n.succs {
		s.npred--
		if s.npred == 0 {
			tr.releaseLocked(s.task)
		}
	}
	tr.putNode(n)
	tr.mu.Unlock()
}

// releaseLocked makes a fully-satisfied parked task runnable: team tasks
// are pushed to their spawning worker's deque (claimable and steal-safe
// from there), global-scope tasks get their own goroutine. Called with
// tr.mu held; the deque and group locks nest strictly inside it.
func (tr *depTracker) releaseLocked(t *task) {
	if !t.unpark() {
		return
	}
	if h := obs.Active(); h.Tracing() {
		h.DepRelease(curGID(), t.traceID)
	}
	if w := t.spawner; w != nil {
		w.deque.push(t)
		t.group.notify()
		return
	}
	if t.claim() {
		goExec(t)
	}
}

// SpawnDep runs body asynchronously under the caller's task scope, ordered
// after the previously spawned tasks its dependence clauses conflict with
// (@Task + @Depend): SpawnArg from the caller's worker. With empty clauses
// it is exactly Spawn.
func SpawnDep(body func(), d Deps) { SpawnArg(Current(), plainTask, body, d) }

// TaskGroupScope executes body and then waits for every task spawned in
// its dynamic extent — including tasks spawned by those tasks — to
// complete (OpenMP's taskgroup). The wait runs even when body panics, so no task
// outlives its scope; the waiting worker helps execute queued team tasks,
// like every scheduling point. Outside parallel regions the scope degrades
// to a global task join, matching @TaskWait.
func TaskGroupScope(body func()) {
	w := Current()
	if w == nil {
		defer globalTasks.Wait()
		body()
		return
	}
	g := newScopedGroup(w.spawnGroup())
	prev := w.curGroup.Swap(g)
	defer func() {
		w.curGroup.Store(prev)
		g.helpWait(w)
	}()
	body()
}
