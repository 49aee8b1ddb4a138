package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// orderLog records task execution order for dependence assertions.
type orderLog struct {
	mu  sync.Mutex
	seq []int
}

func (l *orderLog) add(v int) {
	l.mu.Lock()
	l.seq = append(l.seq, v)
	l.mu.Unlock()
}

func (l *orderLog) order() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.seq...)
}

func (l *orderLog) pos(v int) int {
	for i, x := range l.order() {
		if x == v {
			return i
		}
	}
	return -1
}

// TestDependChainSerializes: inout tasks on one address must execute in
// spawn order, regardless of which worker runs them.
func TestDependChainSerializes(t *testing.T) {
	const n = 200
	var log orderLog
	var x int
	Region(4, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		d := Deps{InOut: []any{&x}}
		for i := 0; i < n; i++ {
			i := i
			SpawnDep(func() { log.add(i) }, d)
		}
		TaskWait()
	})
	got := log.order()
	if len(got) != n {
		t.Fatalf("ran %d tasks, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("execution order %v not serialized at index %d", got[:i+1], i)
		}
	}
}

// TestDependOutAfterIn: a writer spawned after readers (WAR hazard) waits
// for every reader.
func TestDependOutAfterIn(t *testing.T) {
	var log orderLog
	var x int
	Region(4, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		var slow sync.WaitGroup
		slow.Add(1)
		SpawnDep(func() { log.add(0) }, Deps{Out: []any{&x}})
		for r := 1; r <= 3; r++ {
			r := r
			SpawnDep(func() {
				if r == 1 {
					slow.Wait() // make one reader slow; the writer must still wait
				}
				log.add(r)
			}, Deps{In: []any{&x}})
		}
		SpawnDep(func() { log.add(4) }, Deps{Out: []any{&x}})
		slow.Done()
		TaskWait()
	})
	if got := log.order(); len(got) != 5 {
		t.Fatalf("ran %d tasks, want 5: %v", len(got), got)
	}
	if p := log.pos(4); p != 4 {
		t.Fatalf("second writer ran at position %d (order %v), want last", p, log.order())
	}
	if p := log.pos(0); p != 0 {
		t.Fatalf("first writer ran at position %d, want first", p)
	}
}

// TestDependDiamond: A → {B, C} → D.
func TestDependDiamond(t *testing.T) {
	var log orderLog
	var x, y1, y2 int
	Region(3, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		SpawnDep(func() { log.add(0) }, Deps{Out: []any{&x}})
		SpawnDep(func() { log.add(1) }, Deps{In: []any{&x}, Out: []any{&y1}})
		SpawnDep(func() { log.add(2) }, Deps{In: []any{&x}, Out: []any{&y2}})
		SpawnDep(func() { log.add(3) }, Deps{In: []any{&y1, &y2}})
		TaskWait()
	})
	if got := log.order(); len(got) != 4 {
		t.Fatalf("ran %d tasks, want 4: %v", len(got), got)
	}
	if log.pos(0) != 0 {
		t.Fatalf("source ran at %d, want 0 (order %v)", log.pos(0), log.order())
	}
	if log.pos(3) != 3 {
		t.Fatalf("sink ran at %d, want 3 (order %v)", log.pos(3), log.order())
	}
}

// TestDependIndependentKeysRunFreely: tasks on disjoint addresses carry no
// edges — all must complete without any serialization deadlock.
func TestDependIndependentKeysRunFreely(t *testing.T) {
	var count atomic.Int32
	keys := make([]int, 64)
	Region(4, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		for i := range keys {
			i := i
			SpawnDep(func() { count.Add(1) }, Deps{InOut: []any{&keys[i]}})
		}
		TaskWait()
	})
	if count.Load() != 64 {
		t.Fatalf("ran %d tasks, want 64", count.Load())
	}
}

// TestDependNilKeysIgnored: nil clause elements express absent boundary
// neighbours and must not create edges or crash.
func TestDependNilKeysIgnored(t *testing.T) {
	var ran atomic.Bool
	var x int
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		SpawnDep(func() { ran.Store(true) }, Deps{In: []any{nil}, InOut: []any{nil, &x, nil}})
		TaskWait()
	})
	if !ran.Load() {
		t.Fatal("task with nil clause elements did not run")
	}
}

// TestDependPanicReleasesSuccessors: a panicking predecessor must release —
// not deadlock — its successors, and the region must still re-raise the
// panic on the master.
func TestDependPanicReleasesSuccessors(t *testing.T) {
	var succRan atomic.Bool
	var x int
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("region swallowed the task panic")
		} else if r != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
		if !succRan.Load() {
			t.Fatal("successor of panicking predecessor never ran")
		}
	}()
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		SpawnDep(func() { panic("boom") }, Deps{Out: []any{&x}})
		SpawnDep(func() { succRan.Store(true) }, Deps{In: []any{&x}})
		TaskWait()
	})
}

// TestDependUnderNestedRegions: dependence chains inside a nested team are
// tracked by the nested team's own tracker and complete independently of
// the outer team's chains.
func TestDependUnderNestedRegions(t *testing.T) {
	var outer, inner orderLog
	var ox, ix int
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		for i := 0; i < 5; i++ {
			i := i
			SpawnDep(func() { outer.add(i) }, Deps{InOut: []any{&ox}})
		}
		Region(2, func(iw *Worker) {
			if iw.ID != 0 {
				return
			}
			for i := 0; i < 5; i++ {
				i := i
				SpawnDep(func() { inner.add(i) }, Deps{InOut: []any{&ix}})
			}
			TaskWait()
		})
		TaskWait()
	})
	for name, log := range map[string]*orderLog{"outer": &outer, "inner": &inner} {
		got := log.order()
		if len(got) != 5 {
			t.Fatalf("%s ran %d tasks, want 5", name, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%s chain out of order: %v", name, got)
			}
		}
	}
}

// TestFutureDependGet: a future whose producer has dependence clauses
// resolves with the dependences honoured.
func TestFutureDependGet(t *testing.T) {
	var x int
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		SpawnDep(func() { x = 41 }, Deps{Out: []any{&x}})
		f := SpawnFuture(Current(), func() any { return x + 1 }, Deps{In: []any{&x}})
		if got := f.Get(); got != 42 {
			t.Errorf("future resolved to %v, want 42", got)
		}
	})
}

// TestFutureDependAcrossNestedTeam: demanding a dependent future of the
// enclosing team from inside a nested single-worker team must not deadlock
// — the getter steals the producer's predecessors from the outer deques.
func TestFutureDependAcrossNestedTeam(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		Region(1, func(w *Worker) {
			var x int
			SpawnDep(func() { x = 10 }, Deps{Out: []any{&x}})
			f := SpawnFuture(Current(), func() any { return x * 2 }, Deps{In: []any{&x}})
			Region(1, func(iw *Worker) {
				if got := f.Get(); got != 20 {
					t.Errorf("future resolved to %v, want 20", got)
				}
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested-team dependent future Get deadlocked")
	}
}

// TestDependGlobalScope: SpawnDep outside any parallel region still orders
// the chain (goroutine-per-task execution under the global tracker).
func TestDependGlobalScope(t *testing.T) {
	var log orderLog
	var x int
	for i := 0; i < 20; i++ {
		i := i
		SpawnDep(func() { log.add(i) }, Deps{InOut: []any{&x}})
	}
	TaskWait()
	got := log.order()
	if len(got) != 20 {
		t.Fatalf("ran %d tasks, want 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("global chain out of order: %v", got)
		}
	}
}

// TestDependTrackerCleanup: retiring whole chains must drop the per-address
// state so long regions do not accumulate tracker objects.
func TestDependTrackerCleanup(t *testing.T) {
	var x, y int
	var team *Team
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		team = w.Team
		for i := 0; i < 50; i++ {
			SpawnDep(func() {}, Deps{InOut: []any{&x}, In: []any{&y}})
			SpawnDep(func() {}, Deps{Out: []any{&y}})
		}
		TaskWait()
	})
	tr := team.depTracker()
	tr.mu.Lock()
	live := len(tr.objs)
	tr.mu.Unlock()
	if live != 0 {
		t.Fatalf("tracker retains %d address objects after all tasks retired, want 0", live)
	}
}

// TestTaskGroupScopeWaitsOwnTasks: the scope joins tasks spawned inside it
// (including descendants spawned by those tasks) before returning.
func TestTaskGroupScopeWaitsOwnTasks(t *testing.T) {
	var child, grandchild atomic.Bool
	Region(3, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		TaskGroupScope(func() {
			Spawn(func() {
				grandchildSpawner := func() { grandchild.Store(true) }
				Spawn(grandchildSpawner)
				child.Store(true)
			})
		})
		if !child.Load() {
			t.Error("scope returned before child task completed")
		}
		if !grandchild.Load() {
			t.Error("scope returned before descendant task completed")
		}
	})
}

// TestTaskGroupScopeNested: inner scopes join before outer scopes.
func TestTaskGroupScopeNested(t *testing.T) {
	var innerDone, outerDone atomic.Bool
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		TaskGroupScope(func() {
			Spawn(func() { outerDone.Store(true) })
			TaskGroupScope(func() {
				Spawn(func() { innerDone.Store(true) })
			})
			if !innerDone.Load() {
				t.Error("inner scope returned before its task completed")
			}
		})
		if !outerDone.Load() {
			t.Error("outer scope returned before its task completed")
		}
	})
}

// TestTaskGroupScopeOutsideRegion degrades to a global join.
func TestTaskGroupScopeOutsideRegion(t *testing.T) {
	var ran atomic.Bool
	TaskGroupScope(func() {
		Spawn(func() { ran.Store(true) })
	})
	if !ran.Load() {
		t.Fatal("TaskGroupScope outside region returned before spawned task completed")
	}
}

// TestDependStress: many interleaved chains across a team, under load, all
// orderings preserved. Primarily a race-detector workout.
func TestDependStress(t *testing.T) {
	const chains, length = 8, 50
	logs := make([]orderLog, chains)
	keys := make([]int, chains)
	Region(4, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		for i := 0; i < length; i++ {
			for c := 0; c < chains; c++ {
				c, i := c, i
				SpawnDep(func() { logs[c].add(i) }, Deps{InOut: []any{&keys[c]}})
			}
		}
		TaskWait()
	})
	for c := range logs {
		got := logs[c].order()
		if len(got) != length {
			t.Fatalf("chain %d ran %d tasks, want %d", c, len(got), length)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("chain %d out of order at %d: %v", c, i, got)
			}
		}
	}
}

// TestTaskGroupScopeTasksAreStolen: scope tasks count toward the team
// group (the parent chain), so teammates parked in the region-end join
// wake up and steal them — a parallel.For must not serialize on its caller.
func TestTaskGroupScopeTasksAreStolen(t *testing.T) {
	var byOthers atomic.Int32
	spawned := make(chan struct{})
	Region(4, func(w *Worker) {
		if w.ID != 0 {
			// Teammates proceed to the region-end join once the tasks exist:
			// on a fresh team an earlier arrival finds no task group at all
			// and leaves, which is not the behaviour under test.
			<-spawned
			return
		}
		gate := make(chan struct{})
		TaskGroupScope(func() {
			for i := 0; i < 8; i++ {
				Spawn(func() {
					if ThreadID() != 0 {
						byOthers.Add(1)
					}
					<-gate
				})
			}
			close(spawned)
			// Teammates at the region-end join see the team group pending
			// (scope counts propagate) and steal from our deque; wait for
			// evidence before releasing the tasks.
			deadline := time.Now().Add(10 * time.Second)
			for byOthers.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			close(gate)
		})
	})
	if byOthers.Load() == 0 {
		t.Fatal("no scope task was executed by a teammate: scoped tasks are invisible to the team join")
	}
}

// TestFutureSubSpawnAcrossNestedTeam: a producer that itself spawns,
// executed by a nested team's worker via Get, must not strand its
// sub-spawn between the enclosing team's group and the nested team's
// deque (cross-team group adoption would deadlock the enclosing join).
func TestFutureSubSpawnAcrossNestedTeam(t *testing.T) {
	var sub atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		Region(2, func(w *Worker) {
			if w.ID != 0 {
				return
			}
			f := SpawnFuture(Current(), func() any {
				Spawn(func() { sub.Store(true) })
				return 1
			}, Deps{})
			Region(1, func(*Worker) {
				if got := f.Get(); got != 1 {
					t.Errorf("future = %v, want 1", got)
				}
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sub-spawning producer executed across nested teams deadlocked the region join")
	}
	if !sub.Load() {
		t.Fatal("sub-spawned task never ran")
	}
}
