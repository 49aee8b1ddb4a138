package core

import (
	"sync/atomic"
	"testing"

	"aomplib/internal/weaver"
)

// A value-returning parallel region must return the master's result.
func TestValueReturningParallelRegion(t *testing.T) {
	p := weaver.NewProgram("t")
	var runs atomic.Int32
	val := p.Class("A").ValueProc("compute", func() any {
		runs.Add(1)
		return ThreadID() * 10
	})
	p.Use(ParallelRegion("call(* A.compute(..))").Threads(3))
	p.MustWeave()
	got := val()
	if runs.Load() != 3 {
		t.Fatalf("region body ran %d times", runs.Load())
	}
	if got != 0 {
		t.Fatalf("region result = %v, want master's 0", got)
	}
}

// FutureTask inside a parallel region: tasks join at the region end.
func TestFutureTaskInsideRegion(t *testing.T) {
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	compute := cls.FutureProc("compute", func() any { return NumThreads() })
	var bad atomic.Int32
	region := cls.Proc("region", func() {
		f := compute()
		if f.Get() != 2 {
			bad.Add(1)
		}
	})
	p.Use(ParallelRegion("call(* A.region(..))").Threads(2))
	p.Use(FutureTaskSpawn("call(* A.compute(..))"))
	p.MustWeave()
	region()
	if bad.Load() != 0 {
		t.Fatalf("%d futures resolved outside region context", bad.Load())
	}
}

// Re-weaving with different parameters mid-experiment — the paper's
// "quickly (and independently) test new parallelisation approaches".
func TestSwapAspectConfigurationsBetweenRuns(t *testing.T) {
	p := weaver.NewProgram("t")
	var count atomic.Int32
	work := p.Class("A").Proc("work", func() { count.Add(1) })

	p.Use(ParallelRegion("call(* A.work(..))").Named("r2").Threads(2))
	p.MustWeave()
	work()
	if count.Load() != 2 {
		t.Fatalf("first configuration ran %d", count.Load())
	}

	p.RemoveAspect("r2")
	p.Use(ParallelRegion("call(* A.work(..))").Named("r4").Threads(4))
	p.MustWeave()
	count.Store(0)
	work()
	if count.Load() != 4 {
		t.Fatalf("second configuration ran %d", count.Load())
	}
}

// Barrier advice outside any region must be a no-op even when composed
// with master/single (regression guard for deadlocks in sequential runs).
func TestSequentialCompositionNoDeadlock(t *testing.T) {
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	var order []string
	m := cls.Proc("m", func() { order = append(order, "m") })
	p.Use(MasterSection("call(* A.m(..))"))
	p.Use(BarrierAroundPoint("call(* A.m(..))"))
	p.Use(CriticalSection("call(* A.m(..))"))
	p.MustWeave()
	for i := 0; i < 3; i++ {
		m()
	}
	if len(order) != 3 {
		t.Fatalf("sequential composed method ran %d times", len(order))
	}
}

// Two independent programs must not share construct state even when their
// aspects have identical names.
func TestProgramsAreIsolated(t *testing.T) {
	pinWidth(t)
	mk := func() (func(), *atomic.Int32) {
		p := weaver.NewProgram("iso")
		var n atomic.Int32
		f := p.Class("A").Proc("m", func() { n.Add(1) })
		p.Use(ParallelRegion("call(* A.m(..))").Threads(2))
		p.MustWeave()
		return f, &n
	}
	f1, n1 := mk()
	f2, n2 := mk()
	f1()
	f2()
	f1()
	if n1.Load() != 4 || n2.Load() != 2 {
		t.Fatalf("programs interfered: %d, %d", n1.Load(), n2.Load())
	}
}
