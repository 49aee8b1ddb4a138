package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// TestUndeferredTaskAdvice: in a Threads(1) region a woven @Task and
// @FutureTask run at their spawn, on the spawner's worker: their bodies
// have run before the call returns, a task spawned by a task runs inside
// it, and the future comes back resolved.
func TestUndeferredTaskAdvice(t *testing.T) {
	pinWidth(t)
	p := weaver.NewProgram("undeferred")
	cls := p.Class("U")
	var log []string
	note := func(s string) { log = append(log, s) }
	var spawner *rt.Worker
	leaf := cls.Proc("leaf", func() {
		if rt.Current() != spawner {
			t.Error("an undeferred task ran off its spawner's worker")
		}
		note("c")
	})
	task := cls.Proc("task", func() { note("b"); leaf(); note("d") })
	fut := cls.FutureProc("fut", func() any { note("f"); return 42 })
	wait := cls.Proc("wait", func() { note("h") })
	run := cls.Proc("run", func() {
		spawner = rt.Current()
		note("a")
		task()
		note("e")
		f := fut()
		if !f.Resolved() {
			t.Error("@FutureTask on a team of one returned an unresolved future")
		}
		note("g")
		wait()
		if v := f.Get(); v != 42 {
			t.Errorf("future resolved to %v, want 42", v)
		}
	})
	p.Use(ParallelRegion("call(* U.run(..))").Threads(1))
	p.Use(TaskSpawn("call(* U.task(..)) || call(* U.leaf(..))"))
	p.Use(FutureTaskSpawn("call(* U.fut(..))"))
	p.Use(TaskWaitPoint("call(* U.wait(..))"))
	p.MustWeave()
	run()
	if got := strings.Join(log, ""); got != "abcdefgh" {
		t.Fatalf("order %q, want abcdefgh: a task did not run at its spawn", got)
	}
}

// TestUndeferredTaskAdvicePanics: a woven task panicking on a team of one
// stops its spawner at the spawn, and the region re-raises it to the caller.
func TestUndeferredTaskAdvicePanics(t *testing.T) {
	pinWidth(t)
	p := weaver.NewProgram("undeferredPanic")
	cls := p.Class("U")
	task := cls.Proc("task", func() { panic("task boom") })
	reached := false
	run := cls.Proc("run", func() { task(); reached = true })
	p.Use(ParallelRegion("call(* U.run(..))").Threads(1), TaskSpawn("call(* U.task(..))"))
	p.MustWeave()
	func() {
		defer func() {
			if r := recover(); r != "task boom" {
				t.Fatalf("recovered %v, want task boom", r)
			}
		}()
		run()
	}()
	if reached {
		t.Error("the spawner went on past a task that panicked at its spawn")
	}
}

// TestTaskLoopOnTeamOfOne: @TaskLoop on a team of one — a Threads(1) region,
// then a Threads(2) region once it has narrowed — runs every iteration
// exactly once, in one call over the whole space, as outside a region.
func TestTaskLoopOnTeamOfOne(t *testing.T) {
	const n, entries = 64, 400
	for _, threads := range []int{1, 2} {
		p := weaver.NewProgram("taskloop1")
		cls := p.Class("TL")
		hits := make([]atomic.Int32, n)
		var calls atomic.Int32
		var width int
		loop := cls.ForProc("loop", func(lo, hi, step int) {
			calls.Add(1)
			for i := lo; i < hi; i += step {
				hits[i].Add(1)
			}
		})
		run := cls.Proc("run", func() { width = rt.NumThreads(); loop(0, n, 1) })
		p.Use(ParallelRegion("call(* TL.run(..))").Threads(threads), SingleSection("call(* TL.run(..))"))
		p.Use(TaskLoopShare("call(* TL.loop(..))"))
		p.MustWeave()
		checked := false
		for e := 0; e < entries && !checked; e++ {
			calls.Store(0)
			for i := range hits {
				hits[i].Store(0)
			}
			run()
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("Threads(%d) entry %d (width %d): iteration %d ran %d times", threads, e, width, i, h)
				}
			}
			if width == 1 {
				checked = true
				if c := calls.Load(); c != 1 {
					t.Fatalf("Threads(%d) entry %d: a team of one made %d loop calls, want 1 inline call", threads, e, c)
				}
			}
		}
		if !checked {
			// As in TestNarrowedEntryIsSequential: with the portable gls
			// backend a tiny region may never narrow.
			t.Logf("Threads(%d): the region never ran on one worker in %d entries", threads, entries)
		}
	}
}
