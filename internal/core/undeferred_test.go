package core

import (
	"strings"
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
