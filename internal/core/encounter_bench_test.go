package core

import (
	"testing"

	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// The "construct encounter" row of the layer budget (DESIGN.md): what one
// woven construct costs inside an already open two-worker region, with
// empty bodies. Every worker of the team runs the b.N encounters, so ns/op
// is the team-wide cost of one encounter. CI gates each at 0 allocs/op.

// benchEncounters opens a two-worker region over b.N calls of the method
// encounter builds, with deploy's aspects woven in. The width is pinned, so
// the warm-up entry does not teach the timed one to run on one worker.
func benchEncounters(b *testing.B, deploy func(p *weaver.Program), encounter func(cls *weaver.Class) func()) {
	pinWidth(b)
	p := weaver.NewProgram("enc")
	cls := p.Class("E")
	enc := encounter(cls)
	n, width := 1, 0
	run := cls.Proc("run", func() {
		if rt.ThreadID() == 0 {
			width = rt.NumThreads()
		}
		for i := 0; i < n; i++ {
			enc()
		}
	})
	p.Use(ParallelRegion("call(* E.run(..))").Threads(2))
	deploy(p)
	p.MustWeave()
	run() // lease the team, create the construct records
	n = b.N
	b.ReportAllocs()
	b.ResetTimer()
	run()
	if width != 2 {
		b.Fatalf("the region ran %d workers, want 2", width)
	}
}

func BenchmarkEncounter_Single(b *testing.B) {
	benchEncounters(b,
		func(p *weaver.Program) { p.Use(SingleSection("call(* E.once(..))")) },
		func(cls *weaver.Class) func() { return cls.Proc("once", func() {}) })
}

func BenchmarkEncounter_MasterValue(b *testing.B) {
	var v any = 1
	benchEncounters(b,
		func(p *weaver.Program) { p.Use(MasterSection("call(* E.get(..))")) },
		func(cls *weaver.Class) func() {
			get := cls.ValueProc("get", func() any { return v })
			return func() { get() }
		})
}

func benchEncounterFor(b *testing.B, kind sched.Kind, chunk int) {
	benchEncounters(b,
		func(p *weaver.Program) { p.Use(ForShare("call(* E.loop(..))").Schedule(kind).Chunk(chunk)) },
		func(cls *weaver.Class) func() {
			loop := cls.ForProc("loop", func(lo, hi, step int) {})
			return func() { loop(0, 1024, 1) }
		})
}

func BenchmarkEncounter_ForDynamic16(b *testing.B) { benchEncounterFor(b, sched.Dynamic, 16) }
func BenchmarkEncounter_ForGuided(b *testing.B)    { benchEncounterFor(b, sched.Guided, 16) }
func BenchmarkEncounter_ForStatic(b *testing.B)    { benchEncounterFor(b, sched.StaticBlock, 0) }
func BenchmarkEncounter_ForCyclic(b *testing.B)    { benchEncounterFor(b, sched.StaticCyclic, 0) }

// threadLocalProgram deploys a thread-local accumulator whose initialiser
// hands out one shared cell, so the benchmarks see the library's
// allocations and not the user's.
func threadLocalProgram(p *weaver.Program) *ThreadLocalAspect {
	var cell any = new(int64)
	tl := NewThreadLocal("call(* E.acc(..))", "acc").InitFresh(func() any { return cell })
	p.Use(tl)
	return tl
}

func BenchmarkEncounter_ThreadLocalGet(b *testing.B) {
	benchEncounters(b,
		func(p *weaver.Program) { threadLocalProgram(p) },
		func(cls *weaver.Class) func() {
			acc := cls.ValueProc("acc", func() any { return nil })
			return func() { acc() }
		})
}

// The same accessor with a second advice stacked on it: the thread-local
// stage is no longer the chain's sole live one, so the call is reified.
func BenchmarkEncounter_ThreadLocalGetStacked(b *testing.B) {
	benchEncounters(b,
		func(p *weaver.Program) {
			threadLocalProgram(p)
			p.Use(passThrough("call(* E.acc(..))"))
		},
		func(cls *weaver.Class) func() {
			acc := cls.ValueProc("acc", func() any { return nil })
			return func() { acc() }
		})
}

// One access (re-initialising the copy the previous reduce dropped) and
// the reduce: one barrier, the merge inside it.
func BenchmarkEncounter_Reduce(b *testing.B) {
	benchEncounters(b,
		func(p *weaver.Program) {
			p.Use(ReducePoint("call(* E.merge(..))", threadLocalProgram(p), func(any) {}))
		},
		func(cls *weaver.Class) func() {
			acc := cls.ValueProc("acc", func() any { return nil })
			merge := cls.Proc("merge", func() {})
			return func() { acc(); merge() }
		})
}
