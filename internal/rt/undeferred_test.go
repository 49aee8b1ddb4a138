package rt

import (
	"fmt"
	"strings"
	"testing"

	"aomplib/internal/obs"
)

// On a team of one a depend-free task is undeferred (DESIGN.md §4,
// "Undeferred on a team of one"): it runs at its spawn, on the spawner's
// goroutine, and a task it spawns runs inside it. These tests pin that
// contract; each fails on a runtime that defers such tasks again.

// TestUndeferredTaskRunsAtSpawn: Spawn, SpawnArg and SpawnFuture bodies on a
// team of one have run before the spawn returns, in spawn order, with
// nested spawns inside their parent; nothing is left pending for the wait.
func TestUndeferredTaskRunsAtSpawn(t *testing.T) {
	var log []string
	note := func(s string) { log = append(log, s) }
	Region(1, func(w *Worker) {
		note("a")
		Spawn(func() {
			note("b")
			Spawn(func() { note("c") })
			note("d")
		})
		note("e")
		SpawnArg(w, func(arg any) { note(arg.(string)) }, "f", Deps{})
		f := SpawnFuture(Current(), func() any { note("g"); return 7 }, Deps{})
		if !f.Resolved() {
			t.Error("a team of one's future was not resolved at its spawn")
		}
		note("h")
		if n := w.spawnGroup().Pending(); n != 0 {
			t.Errorf("%d tasks pending after undeferred spawns", n)
		}
		if v := f.Get(); v != 7 {
			t.Errorf("future resolved to %v, want 7", v)
		}
	})
	if got := strings.Join(log, ""); got != "abcdefgh" {
		t.Fatalf("order %q, want abcdefgh: a task did not run at its spawn", got)
	}
}

// TestUndeferredTaskPanicRetiresTeam: a panicking task on a team of one
// surfaces at its spawn — the spawner's next statement never runs — is
// re-raised on the master, and its team is retired, never recycled.
func TestUndeferredTaskPanicRetiresTeam(t *testing.T) {
	defer resetPool(t)()
	before := ReadPoolStats()
	var poisoned *Team
	reached := false
	got := joined(t, func() {
		Region(1, func(w *Worker) {
			poisoned = w.Team
			Spawn(func() { panic("task boom") })
			reached = true
		})
	})
	if got != "task boom" {
		t.Fatalf("region re-raised %v, want task boom", got)
	}
	if reached {
		t.Error("the spawner went on past a task that panicked at its spawn")
	}
	if after := ReadPoolStats(); after.Retired != before.Retired+1 {
		t.Errorf("retired count %d -> %d, want +1", before.Retired, after.Retired)
	}
	for i := 0; i < 4; i++ {
		if captureTeam(1) == poisoned {
			t.Fatal("the team whose task panicked was recycled")
		}
	}
}

// TestUndeferredTaskCounted: an undeferred task is one spawned and completed
// task in the metrics and one inline task, with no create, in the trace.
func TestUndeferredTaskCounted(t *testing.T) {
	defer obs.EnableMetrics(obs.EnableMetrics(true))
	defer obs.EnableTracing(obs.EnableTracing(false))
	before := obs.ReadMetrics()
	evs := recordTrace(t, func() {
		Region(1, func(w *Worker) {
			Spawn(func() { Spawn(func() {}) })
			SpawnArg(w, func(any) {}, nil, Deps{})
			SpawnFuture(Current(), func() any { return nil }, Deps{}).Get()
			TaskWait()
		})
	})
	m := obs.ReadMetrics()
	if s, c := m.TasksSpawned-before.TasksSpawned, m.TasksCompleted-before.TasksCompleted; s != 4 || c != 4 {
		t.Errorf("4 undeferred tasks counted %d spawned, %d completed", s, c)
	}
	for name, want := range map[string]int{"inline task": 4, "spawn": 0} {
		if n := countEvents(evs, name); n != want {
			t.Errorf("the trace holds %d %q events, want %d", n, name, want)
		}
	}
}

// TestSpawnDepDeferredOnTeamOfOne: @Depend tasks keep the tracker on a team
// of one (a goroutine inheriting the worker can spawn concurrently with it,
// so spawn order is not completion order there): they are queued, run at
// the wait, and still run in dependence order.
func TestSpawnDepDeferredOnTeamOfOne(t *testing.T) {
	var x int
	var log []string
	Region(1, func(w *Worker) {
		SpawnDep(func() { x = 1; log = append(log, "w") }, Deps{Out: []any{&x}})
		SpawnDep(func() { log = append(log, fmt.Sprint("r", x)) }, Deps{In: []any{&x}})
		if len(log) != 0 {
			t.Errorf("a dependent task ran at its spawn: %v", log)
		}
		TaskWait()
	})
	if got := strings.Join(log, " "); got != "w r1" {
		t.Fatalf("dependent tasks ran as %q, want \"w r1\"", got)
	}
}
