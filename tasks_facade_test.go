package aomplib_test

import (
	"sync/atomic"
	"testing"

	"aomplib"
)

// TestFacadeTasksExactlyOnce: woven @Task and @FutureTask spawns from a
// @Single run exactly once at team widths 1, 2 and 3, joined by @TaskWait.
// At width 1 they are undeferred: each body has run before its spawn
// returns.
func TestFacadeTasksExactlyOnce(t *testing.T) {
	prev := fixedRegionWidth
	fixedRegionWidth = true
	t.Cleanup(func() { fixedRegionWidth = prev })
	const n, entries = 16, 20
	for _, width := range []int{1, 2, 3} {
		prog := aomplib.NewProgram("tasks")
		cls := prog.Class("T")
		hits := make([]atomic.Int32, n)
		var futs atomic.Int32
		task := cls.KeyedProc("task", func(i int) { hits[i].Add(1) })
		fut := cls.FutureProc("fut", func() any { futs.Add(1); return 1 })
		var seen atomic.Int32
		single := cls.Proc("single", func() {
			seen.Store(int32(aomplib.NumThreads()))
			for i := 0; i < n; i++ {
				task(i)
				if aomplib.NumThreads() == 1 && hits[i].Load() != 1 {
					t.Errorf("width 1: task %d had not run when its spawn returned", i)
				}
			}
			sum := 0
			for i := 0; i < n; i++ {
				f := fut()
				if aomplib.NumThreads() == 1 && !f.Resolved() {
					t.Errorf("width 1: future %d was not resolved at its spawn", i)
				}
				sum += f.Get().(int)
			}
			if sum != n {
				t.Errorf("futures summed to %d, want %d", sum, n)
			}
		})
		wait := cls.Proc("wait", func() {})
		run := cls.Proc("run", func() { single(); wait() })
		prog.Use(aomplib.ParallelRegion("call(* T.run(..))").Threads(width))
		prog.Use(aomplib.SingleSection("call(* T.single(..))"))
		prog.Use(aomplib.TaskSpawn("call(* T.task(..))"), aomplib.FutureTaskSpawn("call(* T.fut(..))"))
		prog.Use(aomplib.TaskWaitPoint("call(* T.wait(..))"))
		prog.MustWeave()
		for e := 0; e < entries; e++ {
			for i := range hits {
				hits[i].Store(0)
			}
			futs.Store(0)
			run()
			if got := int(seen.Load()); got != width {
				t.Fatalf("width %d: the region ran %d wide", width, got)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("width %d entry %d: task %d ran %d times", width, e, i, h)
				}
			}
			if f := futs.Load(); f != n {
				t.Fatalf("width %d entry %d: %d future bodies ran, want %d", width, e, f, n)
			}
		}
	}
}
