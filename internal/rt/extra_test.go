package rt

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestTaskScopeSelection: a task joins the global group outside a region,
// the team group inside one, and the innermost TaskGroupScope inside
// that — each counts it pending until it has run.
func TestTaskScopeSelection(t *testing.T) {
	hold := make(chan struct{})
	before := globalTasks.Pending()
	Spawn(func() { <-hold })
	if n := globalTasks.Pending(); n != before+1 {
		t.Errorf("an out-of-region spawn left the global group at %d pending, want %d", n, before+1)
	}
	close(hold)
	TaskWait()
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		hold := make(chan struct{})
		Spawn(func() { <-hold })
		if n := w.Team.Tasks().Pending(); n != 1 {
			t.Errorf("an in-region spawn left the team group at %d pending, want 1", n)
		}
		TaskGroupScope(func() {
			Spawn(func() { <-hold })
			if n := w.curGroup.Load().Pending(); n != 1 {
				t.Errorf("a scoped spawn left its scope at %d pending, want 1", n)
			}
			close(hold)
		})
	})
}

func TestSpawnOutsideRegion(t *testing.T) {
	var ran atomic.Bool
	Spawn(func() {
		if Current() != nil {
			t.Error("task outside region inherited a worker")
		}
		ran.Store(true)
	})
	globalTasks.Wait()
	if !ran.Load() {
		t.Fatal("task did not run")
	}
}

func TestResolvedFuture(t *testing.T) {
	f := ResolvedFuture("v")
	if !f.Resolved() || f.Get() != "v" {
		t.Fatal("resolved future broken")
	}
}

func TestFutureUnresolvedInitially(t *testing.T) {
	f := NewFuture()
	if f.Resolved() {
		t.Fatal("fresh future resolved")
	}
}

func TestWorkerString(t *testing.T) {
	Region(2, func(w *Worker) {
		s := w.String()
		if !strings.Contains(s, "/2") || !strings.Contains(s, "level 1") {
			t.Errorf("String() = %q", s)
		}
	})
}

func TestBarrierParties(t *testing.T) {
	if NewBarrier(3).Parties() != 3 {
		t.Fatal("Parties wrong")
	}
	if NewBarrier(0).Parties() != 1 {
		t.Fatal("parties floor missing")
	}
}

func TestNestedNumThreads(t *testing.T) {
	Region(2, func(outer *Worker) {
		if NumThreads() != 2 {
			t.Errorf("outer NumThreads = %d", NumThreads())
		}
		Region(3, func(inner *Worker) {
			if NumThreads() != 3 {
				t.Errorf("inner NumThreads = %d", NumThreads())
			}
		})
		if NumThreads() != 2 {
			t.Errorf("restored NumThreads = %d", NumThreads())
		}
	})
}

func TestTaskGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Done did not panic")
		}
	}()
	NewTaskGroup().Done()
}

func TestActiveForNilOutsideConstruct(t *testing.T) {
	Region(2, func(w *Worker) {
		if w.ActiveFor() != nil {
			t.Error("ActiveFor non-nil outside for construct")
		}
	})
}

func TestTasksInheritTeamAcrossSpawnChain(t *testing.T) {
	var depth2 atomic.Int32
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		Spawn(func() {
			// Task spawned from a task still joins the region's group.
			Spawn(func() {
				if Current() == nil || Current().Team != w.Team {
					t.Error("nested task lost team context")
				}
				depth2.Add(1)
			})
		})
	})
	if depth2.Load() != 1 {
		t.Fatalf("nested task ran %d times", depth2.Load())
	}
}
