package rt

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"
)

// A nested region is a real team with its own ids, size and barrier, and
// the outer context is restored afterwards.
func TestNestedRegionRealTeamSemantics(t *testing.T) {
	const outer, inner = 2, 3
	var innerRuns atomic.Int32
	var phaseSum atomic.Int32
	Region(outer, func(ow *Worker) {
		outerID := ow.ID
		Region(inner, func(iw *Worker) {
			innerRuns.Add(1)
			if iw.Team.Size != inner || NumThreads() != inner {
				t.Errorf("inner NumThreads = %d, want %d", NumThreads(), inner)
			}
			if ThreadID() != iw.ID || iw.ID < 0 || iw.ID >= inner {
				t.Errorf("inner ThreadID = %d (worker %d)", ThreadID(), iw.ID)
			}
			if Level() != 2 {
				t.Errorf("inner Level = %d, want 2", Level())
			}
			if iw.Team.ParentTeam() == nil || iw.Team.ParentTeam().Size != outer {
				t.Errorf("inner team lineage broken")
			}
			if iw.Team.Root().Size != outer || iw.Team.Root().Level() != 1 {
				t.Errorf("root team lookup broken")
			}
			// The inner barrier must synchronise exactly the inner team:
			// all inner workers add before any proceeds past it.
			phaseSum.Add(1)
			iw.Team.Barrier().Wait()
			if got := phaseSum.Load(); got < inner {
				t.Errorf("inner barrier released with %d arrivals", got)
			}
			iw.Team.Barrier().Wait()
			if iw.ID == 0 {
				phaseSum.Add(-inner) // reset per inner team, one resetter each
			}
		})
		if ThreadID() != outerID || NumThreads() != outer || Level() != 1 {
			t.Errorf("outer context not restored: id=%d n=%d level=%d",
				ThreadID(), NumThreads(), Level())
		}
	})
	if innerRuns.Load() != outer*inner {
		t.Fatalf("inner bodies ran %d times, want %d", innerRuns.Load(), outer*inner)
	}
}

// Tasks spawned in an inner team join at the inner region's end, not the
// outer one's — deque scoping follows the team.
func TestNestedRegionTaskScoping(t *testing.T) {
	var innerTasks atomic.Int32
	Region(2, func(ow *Worker) {
		Region(2, func(iw *Worker) {
			if iw.ID == 0 {
				Spawn(func() { innerTasks.Add(1) })
			}
		})
		// Inner regions have fully joined their tasks here.
		if got := innerTasks.Load(); got < 1 {
			t.Errorf("inner region exited with %d tasks run", got)
		}
	})
	if innerTasks.Load() != 2 {
		t.Fatalf("inner tasks ran %d times, want 2", innerTasks.Load())
	}
}

func TestLevelOutsideRegions(t *testing.T) {
	if Level() != 0 {
		t.Fatalf("Level outside regions = %d", Level())
	}
}

// TaskYield runs up to n queued tasks of the caller's team. A team of one
// has none to run: its depend-free tasks ran at their spawn. The count is
// checked on a team of two whose second worker waits in the team barrier,
// which runs no tasks, so the two queued tasks stay with their spawner.
func TestTaskYield(t *testing.T) {
	if TaskYield(4) != 0 {
		t.Fatal("TaskYield outside region ran tasks")
	}
	Region(1, func(w *Worker) {
		var ran atomic.Int32
		Spawn(func() { ran.Add(1) })
		Spawn(func() { ran.Add(1) })
		if ran.Load() != 2 {
			t.Errorf("team of one: %d of 2 tasks ran at their spawn", ran.Load())
		}
		if got := TaskYield(8); got != 0 {
			t.Errorf("team of one: TaskYield ran %d tasks, want none queued", got)
		}
	})
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			w.Team.Barrier().Wait()
			return
		}
		var ran atomic.Int32
		Spawn(func() { ran.Add(1) })
		Spawn(func() { ran.Add(1) })
		if ran.Load() != 0 {
			t.Errorf("team of two: %d tasks ran before a scheduling point", ran.Load())
		}
		if got := TaskYield(1); got != 1 || ran.Load() != 1 {
			t.Errorf("TaskYield(1) ran %d tasks (%d executed)", got, ran.Load())
		}
		if got := TaskYield(8); got != 1 || ran.Load() != 2 {
			t.Errorf("second TaskYield ran %d tasks (%d executed)", got, ran.Load())
		}
		w.Team.Barrier().Wait()
	})
}

// A panic inside a deferred task is captured and re-raised at region end,
// and queued tasks never leak the group counter.
func TestDeferredTaskPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "task boom" {
			t.Fatalf("recovered %v, want task boom", r)
		}
	}()
	Region(2, func(w *Worker) {
		if w.ID == 0 {
			Spawn(func() { panic("task boom") })
		}
	})
}

// An application setting its own profiler labels inside a region (the one
// mechanism that can clobber the label-backend binding) must degrade
// worker lookups gracefully and never break region exit.
func TestRegionSurvivesForeignProfilerLabels(t *testing.T) {
	var sawDegraded atomic.Bool
	Region(2, func(w *Worker) {
		pprof.Do(context.Background(), pprof.Labels("app", "probe"), func(context.Context) {
			// Inside Do the binding is either shadowed (label backend) or
			// untouched (portable backend); both are acceptable — what
			// matters is no crash and no garbage.
			if Current() == nil {
				sawDegraded.Store(true)
			} else if Current() != w {
				t.Error("foreign label produced a wrong worker")
			}
		})
	})
	if Current() != nil {
		t.Fatal("worker context leaked after region with foreign labels")
	}
	_ = sawDegraded.Load() // backend-dependent; informational only
}

// A future spawned on an enclosing team and demanded inside a nested
// region must not deadlock: the getter claims and executes the queued
// producer directly when team-deque helping cannot reach it. The outer
// team has two workers, so the producer is deferred, and the second waits
// in the team barrier, which runs no tasks; the inner team is a single
// worker. That makes the hang — absent the claim path — deterministic.
func TestFutureGetAcrossNestedRegion(t *testing.T) {
	var got atomic.Int64
	Region(2, func(ow *Worker) {
		if ow.ID != 0 {
			ow.Team.Barrier().Wait()
			return
		}
		f := SpawnFuture(ow, func() any { return 40 + 2 }, Deps{})
		if f.Resolved() {
			t.Error("a team of two resolved its future at the spawn")
		}
		Region(1, func(iw *Worker) {
			got.Store(int64(f.Get().(int)))
		})
		ow.Team.Barrier().Wait()
	})
	if got.Load() != 42 {
		t.Fatalf("future across nested region = %d, want 42", got.Load())
	}
}

// Futures queued when a region panics must still resolve — the region
// failure re-raises, but a holder of the future elsewhere cannot be left
// blocked forever on Get.
func TestQueuedFutureResolvesDespiteRegionPanic(t *testing.T) {
	var f *Future
	func() {
		defer func() {
			if r := recover(); r != "region boom" {
				t.Fatalf("recovered %v, want region boom", r)
			}
		}()
		Region(2, func(w *Worker) {
			if w.ID == 0 {
				f = SpawnFuture(Current(), func() any { return "late" }, Deps{})
			}
			// Every worker panics, so every quiesce is skipped and only
			// the master's end-of-region safety drain can run the task.
			w.Team.Barrier().Wait()
			panic("region boom")
		})
	}()
	resolved := make(chan any, 1)
	go func() { resolved <- f.Get() }()
	select {
	case v := <-resolved:
		if v != "late" {
			t.Fatalf("future = %v, want late", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("future never resolved after region panic")
	}
}
