package core

import (
	"runtime"
	"testing"

	"aomplib/internal/weaver"
)

// tlLoopProgram is a program with a @ThreadLocalField and no @Reduce: a
// region whose every worker touches its thread-local copy once.
func tlLoopProgram(threads int) (run func()) {
	p := weaver.NewProgram("tl-loop")
	cls := p.Class("T")
	acc := cls.ValueProc("acc", func() any { return new(int64) })
	run = cls.Proc("run", func() { *(acc().(*int64))++ })
	p.Use(ParallelRegion("call(* T.run(..))").Threads(threads))
	p.Use(NewThreadLocal("call(* T.acc(..))", "acc").InitFresh(func() any { return new(int64) }))
	p.MustWeave()
	return run
}

// Thread-local copies are lease-scoped: a program that never reduces must
// not accumulate one record per region entry.
func TestThreadLocalWithoutReduceDoesNotGrow(t *testing.T) {
	run := tlLoopProgram(2)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 100; i++ {
		run()
	}
	before := heap()
	const entries = 4000
	for i := 0; i < entries; i++ {
		run()
	}
	if after := heap(); after > before+256<<10 {
		t.Fatalf("live heap grew by %d bytes over %d loop-only region entries", after-before, entries)
	}
}

// BenchmarkThreadLocalFirstAccess is a one-worker region entry plus each
// lease's first thread-local access; BenchmarkRegionEntryWarm in rt is the
// entry alone.
func BenchmarkThreadLocalFirstAccess(b *testing.B) {
	run := tlLoopProgram(1)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
