package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// Nested parallel regions through the aspect layer (Runtime v2): a
// region-woven method called from inside an outer team spawns a real inner
// team with its own ThreadID/NumThreads, work-sharing splits over the
// inner team, and thread-local reduction — barriers included — is scoped
// to each inner team. Two inner teams run concurrently (one per outer
// worker) and must not interfere.
func TestNestedParallelRegionWithReduction(t *testing.T) {
	pinWidth(t)
	p := weaver.NewProgram("t")
	cls := p.Class("App")
	const outerN, innerN, iters = 2, 3, 600

	var grand int64 // reduced across inner teams, mutex-guarded merges
	var mu sync.Mutex
	var badInner, badOuter, innerRuns atomic.Int32

	tl := NewThreadLocal("call(* App.acc(..))", "sum").
		InitFresh(func() any { return new(int64) })
	acc := cls.ValueProc("acc", func() any { return new(int64) })
	collect := cls.Proc("collect", func() {})
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			*(acc().(*int64)) += int64(i)
		}
	})
	inner := cls.Proc("inner", func() {
		innerRuns.Add(1)
		if rt.NumThreads() != innerN || rt.ThreadID() < 0 || rt.ThreadID() >= innerN || rt.Level() != 2 {
			badInner.Add(1)
		}
		loop(0, iters, 1)
		collect() // reduce: inner-team barriers + master merge
	})
	outer := cls.Proc("outer", func() {
		id, n := rt.ThreadID(), rt.NumThreads()
		if n != outerN || rt.Level() != 1 {
			badOuter.Add(1)
		}
		inner()
		// Outer context must be restored after the nested region.
		if rt.ThreadID() != id || rt.NumThreads() != outerN || rt.Level() != 1 {
			badOuter.Add(1)
		}
	})

	p.Use(ParallelRegion("call(* App.outer(..))").Named("outerRegion").Threads(outerN))
	p.Use(ParallelRegion("call(* App.inner(..))").Named("innerRegion").Threads(innerN))
	p.Use(ForShare("call(* App.loop(..))"))
	p.Use(tl)
	p.Use(ReducePoint("call(* App.collect(..))", tl, func(local any) {
		mu.Lock()
		grand += *(local.(*int64))
		mu.Unlock()
	}))
	p.MustWeave()

	outer()

	if badOuter.Load() != 0 {
		t.Errorf("%d outer-context violations", badOuter.Load())
	}
	if badInner.Load() != 0 {
		t.Errorf("%d inner-team context violations", badInner.Load())
	}
	// The inner region body runs once per (outer worker × inner worker).
	if innerRuns.Load() != outerN*innerN {
		t.Errorf("inner bodies ran %d times, want %d", innerRuns.Load(), outerN*innerN)
	}
	// Each of the outerN inner regions work-shares 0..iters-1 exactly once
	// over its own team and reduces it exactly once.
	if want := int64(outerN) * int64(iters*(iters-1)/2); grand != want {
		t.Fatalf("nested reduction = %d, want %d", grand, want)
	}
}

// The nested gate (SetNested) serializes inner regions without touching
// outer ones, and restores cleanly.
func TestNestedGateThroughAspects(t *testing.T) {
	prev := rt.SetNested(false)
	defer rt.SetNested(prev)

	p := weaver.NewProgram("t")
	cls := p.Class("App")
	var innerSizes sync.Map
	inner := cls.Proc("inner", func() { innerSizes.Store(rt.ThreadID(), rt.NumThreads()) })
	outer := cls.Proc("outer", func() { inner() })
	p.Use(ParallelRegion("call(* App.outer(..))").Named("o").Threads(2))
	p.Use(ParallelRegion("call(* App.inner(..))").Named("i").Threads(3))
	p.MustWeave()
	outer()

	if !rt.NestedEnabled() {
		// expected: gate off — inner regions must have run single-worker
		if v, ok := innerSizes.Load(0); !ok || v.(int) != 1 {
			t.Fatalf("serialized inner region size = %v, want 1", v)
		}
	} else {
		t.Fatal("gate did not report disabled")
	}
}
