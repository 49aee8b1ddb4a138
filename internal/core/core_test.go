package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

func TestParallelRegionTeamAndJoin(t *testing.T) {
	p := weaver.NewProgram("t")
	var ids sync.Map
	var count atomic.Int32
	region := p.Class("App").Proc("region", func() {
		count.Add(1)
		ids.Store(rt.ThreadID(), true)
		if rt.NumThreads() != 3 {
			t.Errorf("NumThreads = %d, want 3", rt.NumThreads())
		}
		if rt.Current() == nil {
			t.Error("no current worker inside region")
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(3))
	p.MustWeave()
	region()
	if count.Load() != 3 {
		t.Fatalf("region body ran %d times, want 3", count.Load())
	}
	for id := 0; id < 3; id++ {
		if _, ok := ids.Load(id); !ok {
			t.Errorf("missing thread id %d", id)
		}
	}
	if rt.Current() != nil {
		t.Error("current worker still set after region")
	}
}

func TestParallelRegionDefaultAndOverride(t *testing.T) {
	pinWidth(t)
	p := weaver.NewProgram("t")
	var count atomic.Int32
	region := p.Class("App").Proc("region", func() { count.Add(1) })
	p.Use(ParallelRegion("call(* App.region(..))"))
	p.MustWeave()

	prev := rt.SetDefaultThreads(2)
	defer rt.SetDefaultThreads(prev)
	region()
	if count.Load() != 2 {
		t.Fatalf("default threads not honoured: ran %d", count.Load())
	}

	count.Store(0)
	rt.SetDefaultThreads(0)
	region()
	if int(count.Load()) != rt.DefaultThreads() {
		t.Fatalf("GOMAXPROCS default not honoured: %d", count.Load())
	}
}

func TestParallelRegionThreadsFunc(t *testing.T) {
	p := weaver.NewProgram("t")
	var count atomic.Int32
	region := p.Class("App").Proc("region", func() { count.Add(1) })
	n := 4
	p.Use(ParallelRegion("call(* App.region(..))").ThreadsFunc(func() int { return n }))
	p.MustWeave()
	region()
	if count.Load() != 4 {
		t.Fatalf("ThreadsFunc not honoured: %d", count.Load())
	}
}

// forCoverage runs a region+for with the given schedule and verifies
// every iteration executes exactly once.
func forCoverage(t *testing.T, cfg func(*ForAspect) *ForAspect, lo, hi, step, threads int) {
	t.Helper()
	p := weaver.NewProgram("t")
	n := sched.Space{Lo: lo, Hi: hi, Step: step}.Count()
	hits := make([]atomic.Int32, max(n, 1))
	idx := 0
	loop := p.Class("App").ForProc("loop", func(l, h, s int) {
		for i := l; (s > 0 && i < h) || (s < 0 && i > h); i += s {
			hits[(i-lo)/step].Add(1)
		}
	})
	_ = idx
	region := p.Class("App").Proc("region", func() { loop(lo, hi, step) })
	p.Use(ParallelRegion("call(* App.region(..))").Threads(threads))
	p.Use(cfg(ForShare("call(* App.loop(..))")))
	p.MustWeave()
	region()
	for i := 0; i < n; i++ {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("iteration %d ran %d times", lo+i*step, got)
		}
	}
}

func TestForStaticBlockCoverage(t *testing.T) {
	forCoverage(t, func(a *ForAspect) *ForAspect { return a.Schedule(sched.StaticBlock) }, 0, 101, 1, 4)
	forCoverage(t, func(a *ForAspect) *ForAspect { return a.Schedule(sched.StaticBlock) }, 3, 50, 3, 3)
}

func TestForStaticCyclicCoverage(t *testing.T) {
	forCoverage(t, func(a *ForAspect) *ForAspect { return a.Schedule(sched.StaticCyclic) }, 0, 101, 1, 4)
	forCoverage(t, func(a *ForAspect) *ForAspect { return a.Schedule(sched.StaticCyclic) }, 5, 47, 2, 5)
}

func TestForDynamicCoverage(t *testing.T) {
	forCoverage(t, func(a *ForAspect) *ForAspect { return a.Schedule(sched.Dynamic).Chunk(3) }, 0, 97, 1, 4)
}

func TestForGuidedCoverage(t *testing.T) {
	forCoverage(t, func(a *ForAspect) *ForAspect { return a.Schedule(sched.Guided) }, 0, 512, 1, 4)
}

func TestForCustomScheduleCoverage(t *testing.T) {
	// Case-specific schedule: reversed block assignment.
	custom := func(id, nthreads int, sp sched.Space) []sched.Space {
		return []sched.Space{sched.Block(sp, nthreads, nthreads-1-id)}
	}
	forCoverage(t, func(a *ForAspect) *ForAspect { return a.CustomSchedule(custom) }, 0, 64, 1, 4)
}

func TestForOutsideRegionRunsFullRange(t *testing.T) {
	p := weaver.NewProgram("t")
	var n int
	loop := p.Class("App").ForProc("loop", func(l, h, s int) {
		for i := l; i < h; i += s {
			n++
		}
	})
	p.Use(ForShare("call(* App.loop(..))").Schedule(sched.StaticCyclic))
	p.MustWeave()
	loop(0, 10, 1) // sequential call: aspects must not split anything
	if n != 10 {
		t.Fatalf("sequential for ran %d iterations, want 10", n)
	}
}

func TestForRequiresForMethod(t *testing.T) {
	p := weaver.NewProgram("t")
	p.Class("App").Proc("notAForMethod", func() {})
	p.Use(ForShare("call(* App.notAForMethod(..))"))
	if err := p.Weave(); err == nil {
		t.Fatal("@For on a plain method must fail weaving")
	}
}

// TestForRejectsUnknownSchedule: a kind that is no schedule used to weave
// cleanly and then run none of the loop's iterations, because no dispenser
// was armed for it; it must fail weaving instead.
func TestForRejectsUnknownSchedule(t *testing.T) {
	p := weaver.NewProgram("t")
	p.Class("App").ForProc("loop", func(l, h, s int) {})
	p.Use(ForShare("call(* App.loop(..))").Schedule(sched.Kind(42)))
	if err := p.Weave(); err == nil || !strings.Contains(err.Error(), "unknown schedule") {
		t.Fatalf("@For with Kind(42) wove with error %v, want an unknown-schedule error", err)
	}
}

func TestLinpackStyleComposition(t *testing.T) {
	// Reproduces the structure of paper Fig. 7: a parallel dgefa whose
	// body repeatedly calls a shared-for + two master methods with
	// barriers — and verifies the result matches sequential execution.
	p := weaver.NewProgram("linpack-ish")
	const n, iters = 64, 20
	data := make([]int64, n)
	var masterCount atomic.Int32
	cls := p.Class("Linpack")
	reduceAll := cls.ForProc("reduceAllCols", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			atomic.AddInt64(&data[i], 1)
		}
	})
	interchange := cls.Proc("interchange", func() { masterCount.Add(1) })
	dgefa := cls.Proc("dgefa", func() {
		for k := 0; k < iters; k++ {
			interchange()
			reduceAll(0, n, 1)
		}
	})

	p.Use(ParallelRegion("call(* Linpack.dgefa(..))").Threads(4))
	p.Use(ForShare("call(* Linpack.reduceAllCols(..))"))
	p.Use(MasterSection("call(* Linpack.interchange(..))"))
	p.Use(BarrierBeforePoint("call(* Linpack.interchange(..))"))
	p.Use(BarrierAfterPoint("call(* Linpack.interchange(..)) || call(* Linpack.reduceAllCols(..))"))
	p.MustWeave()

	dgefa()
	for i, v := range data {
		if v != iters {
			t.Fatalf("data[%d] = %d, want %d", i, v, iters)
		}
	}
	if masterCount.Load() != iters {
		t.Fatalf("master ran %d times, want %d", masterCount.Load(), iters)
	}

	// Sequential semantics: unweave, rerun, same per-call behaviour.
	p.Unweave()
	for i := range data {
		data[i] = 0
	}
	masterCount.Store(0)
	dgefa()
	for i, v := range data {
		if v != iters {
			t.Fatalf("sequential data[%d] = %d", i, v)
		}
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	p := weaver.NewProgram("t")
	counter := 0 // protected only by @Critical
	crit := p.Class("App").Proc("crit", func() { counter++ })
	region := p.Class("App").Proc("region", func() {
		for i := 0; i < 500; i++ {
			crit()
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(CriticalSection("call(* App.crit(..))"))
	p.MustWeave()
	region()
	if counter != 4*500 {
		t.Fatalf("counter = %d, want %d (race through critical)", counter, 4*500)
	}
}

func TestCriticalNamedSharedAcrossMethods(t *testing.T) {
	p := weaver.NewProgram("t")
	counter := 0
	a := p.Class("A").Proc("inc1", func() { counter++ })
	b := p.Class("B").Proc("inc2", func() { counter++ })
	region := p.Class("App").Proc("region", func() {
		for i := 0; i < 300; i++ {
			a()
			b()
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	// Two type-unrelated methods sharing one named lock.
	p.Use(CriticalSection("call(* A.inc1(..))").ID("shared"))
	p.Use(CriticalSection("call(* B.inc2(..))").ID("shared"))
	p.MustWeave()
	region()
	if counter != 4*600 {
		t.Fatalf("counter = %d, want %d", counter, 4*600)
	}
}

func TestCriticalPerKeyAllowsDisjointParallelism(t *testing.T) {
	p := weaver.NewProgram("t")
	counters := make([]int, 8)
	upd := p.Class("App").KeyedProc("update", func(k int) { counters[k]++ })
	region := p.Class("App").Proc("region", func() {
		for i := 0; i < 400; i++ {
			upd(i % 8)
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(CriticalSection("call(* App.update(..))").PerKey(8))
	p.MustWeave()
	region()
	for k, c := range counters {
		if c != 4*400/8 {
			t.Fatalf("counters[%d] = %d, want %d", k, c, 4*400/8)
		}
	}
}

func TestCriticalPerKeyRequiresKeyedMethod(t *testing.T) {
	p := weaver.NewProgram("t")
	p.Class("App").Proc("plain", func() {})
	p.Use(CriticalSection("call(* App.plain(..))").PerKey(4))
	if err := p.Weave(); err == nil {
		t.Fatal("per-key critical on plain method must fail weaving")
	}
}

func TestMasterBroadcastsValue(t *testing.T) {
	p := weaver.NewProgram("t")
	var execs atomic.Int32
	val := p.Class("App").ValueProc("pivot", func() any {
		execs.Add(1)
		return 123
	})
	var wrong atomic.Int32
	region := p.Class("App").Proc("region", func() {
		if v := val(); v != 123 {
			wrong.Add(1)
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(MasterSection("call(* App.pivot(..))"))
	p.MustWeave()
	region()
	if execs.Load() != 1 {
		t.Fatalf("master value method ran %d times, want 1", execs.Load())
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d workers saw a wrong broadcast value", wrong.Load())
	}
}

func TestSingleRunsOncePerEncounter(t *testing.T) {
	p := weaver.NewProgram("t")
	var execs atomic.Int32
	sgl := p.Class("App").Proc("init", func() { execs.Add(1) })
	region := p.Class("App").Proc("region", func() {
		for i := 0; i < 7; i++ {
			sgl()
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(SingleSection("call(* App.init(..))"))
	p.MustWeave()
	region()
	if execs.Load() != 7 {
		t.Fatalf("single ran %d times, want 7 (once per encounter)", execs.Load())
	}
}

func TestOrderedWithinDynamicFor(t *testing.T) {
	p := weaver.NewProgram("t")
	var mu sync.Mutex
	var order []int
	emit := p.Class("App").KeyedProc("emit", func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	loop := p.Class("App").ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			emit(i)
		}
	})
	region := p.Class("App").Proc("region", func() { loop(0, 40, 1) })
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(ForShare("call(* App.loop(..))").Schedule(sched.Dynamic))
	p.Use(OrderedSection("call(* App.emit(..))"))
	p.MustWeave()
	region()
	if len(order) != 40 {
		t.Fatalf("ordered emitted %d values", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d — ordered constraint violated", i, v)
		}
	}
}

func TestTaskAndTaskWait(t *testing.T) {
	p := weaver.NewProgram("t")
	var done atomic.Int32
	work := p.Class("App").Proc("work", func() { done.Add(1) })
	var seen atomic.Int32
	join := p.Class("App").Proc("join", func() { seen.Store(done.Load()) })
	p.Use(TaskSpawn("call(* App.work(..))"))
	p.Use(TaskWaitPoint("call(* App.join(..))"))
	p.MustWeave()
	for i := 0; i < 8; i++ {
		work() // spawns, returns immediately
	}
	join()
	if seen.Load() != 8 {
		t.Fatalf("taskwait saw %d completed tasks, want 8", seen.Load())
	}
}

func TestFutureTask(t *testing.T) {
	p := weaver.NewProgram("t")
	compute := p.Class("App").FutureProc("compute", func() any { return 6 * 7 })
	p.Use(FutureTaskSpawn("call(* App.compute(..))"))
	p.MustWeave()
	f := compute()
	if got := f.Get(); got != 42 {
		t.Fatalf("future = %v, want 42", got)
	}
	// Unplugged: synchronous resolution, same observable value.
	p.Unweave()
	if got := compute().Get(); got != 42 {
		t.Fatalf("sequential future = %v", got)
	}
}

func TestFutureTaskRequiresValueMethod(t *testing.T) {
	p := weaver.NewProgram("t")
	p.Class("App").Proc("void", func() {})
	p.Use(FutureTaskSpawn("call(* App.void(..))"))
	if err := p.Weave(); err == nil {
		t.Fatal("@FutureTask on void method must fail weaving")
	}
}

func TestReadersWriter(t *testing.T) {
	p := weaver.NewProgram("t")
	value := 0
	var readers atomic.Int32
	read := p.Class("App").ValueProc("read", func() any {
		readers.Add(1)
		v := value
		readers.Add(-1)
		return v
	})
	write := p.Class("App").Proc("write", func() {
		if readers.Load() != 0 {
			t.Error("writer overlapped readers")
		}
		value++
	})
	region := p.Class("App").Proc("region", func() {
		for i := 0; i < 200; i++ {
			if rt.ThreadID() == 0 {
				write()
			} else {
				read()
			}
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(ReadersWriter().Reader("call(* App.read(..))").Writer("call(* App.write(..))"))
	p.MustWeave()
	region()
	if value != 200 {
		t.Fatalf("value = %d, want 200", value)
	}
}

func TestThreadLocalAndReduce(t *testing.T) {
	p := weaver.NewProgram("t")
	var global int64 // the "object field"
	tl := NewThreadLocal("call(* App.acc(..))", "sum").
		InitFresh(func() any { return new(int64) })
	acc := p.Class("App").ValueProc("acc", func() any { return &global })
	collect := p.Class("App").Proc("collect", func() {})
	loop := p.Class("App").ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			*(acc().(*int64)) += int64(i) // races unless thread-local
		}
	})
	region := p.Class("App").Proc("region", func() {
		loop(0, 1000, 1)
		collect()
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(ForShare("call(* App.loop(..))"))
	p.Use(tl)
	p.Use(ReducePoint("call(* App.collect(..))", tl, func(local any) {
		global += *(local.(*int64))
	}))
	p.MustWeave()
	region()
	if want := int64(999 * 1000 / 2); global != want {
		t.Fatalf("reduced global = %d, want %d", global, want)
	}
	// Sequential semantics: unplugged, accumulate into global directly.
	p.Unweave()
	global = 0
	region()
	if want := int64(999 * 1000 / 2); global != want {
		t.Fatalf("sequential global = %d, want %d", global, want)
	}
}

func TestThreadLocalInitFromGlobal(t *testing.T) {
	p := weaver.NewProgram("t")
	global := 100
	tl := NewThreadLocal("call(* App.field(..))", "f").
		InitFromGlobal(func() any { v := global; return &v })
	field := p.Class("App").ValueProc("field", func() any { return &global })
	var bad atomic.Int32
	region := p.Class("App").Proc("region", func() {
		v := field().(*int)
		if *v != 100 {
			bad.Add(1)
		}
		*v += rt.ThreadID() // private: no interference
		if *v != 100+rt.ThreadID() {
			bad.Add(1)
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(tl)
	p.MustWeave()
	region()
	if bad.Load() != 0 {
		t.Fatalf("%d thread-local invariant violations", bad.Load())
	}
	if global != 100 {
		t.Fatalf("global clobbered: %d", global)
	}
}

func TestAnnotationStyleLinpack(t *testing.T) {
	// Figure 8: the same composition expressed purely with annotations.
	p := weaver.NewProgram("linpack-anno")
	const n, iters = 32, 10
	data := make([]int64, n)
	cls := p.Class("Linpack")
	reduceAll := cls.ForProc("reduceAllCols", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			atomic.AddInt64(&data[i], 1)
		}
	})
	interchange := cls.Proc("interchange", func() {})
	dgefa := cls.Proc("dgefa", func() {
		for k := 0; k < iters; k++ {
			interchange()
			reduceAll(0, n, 1)
		}
	})
	p.MustAnnotate("Linpack.dgefa", Parallel{Threads: 4})
	p.MustAnnotate("Linpack.reduceAllCols", For{}, BarrierAfter{})
	p.MustAnnotate("Linpack.interchange", Master{}, BarrierBefore{}, BarrierAfter{})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()
	dgefa()
	for i, v := range data {
		if v != iters {
			t.Fatalf("data[%d] = %d, want %d", i, v, iters)
		}
	}
}

func TestAnnotationThreadLocalReduce(t *testing.T) {
	p := weaver.NewProgram("t")
	var global int64
	acc := p.Class("App").ValueProc("acc", func() any { return &global })
	collect := p.Class("App").Proc("collect", func() {})
	region := p.Class("App").Proc("region", func() {
		sub := rt.ThreadID() + 1
		*(acc().(*int64)) += int64(sub)
		collect()
	})
	p.MustAnnotate("App.region", Parallel{Threads: 4})
	p.MustAnnotate("App.acc", ThreadLocalField{ID: "sum", Fresh: func() any { return new(int64) }})
	p.MustAnnotate("App.collect", Reduce{ID: "sum", Merge: func(local any) {
		global += *(local.(*int64))
	}})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()
	region()
	if global != 1+2+3+4 {
		t.Fatalf("global = %d, want 10", global)
	}
}

func TestAnnotationReduceWithoutFieldPanics(t *testing.T) {
	p := weaver.NewProgram("t")
	p.Class("App").Proc("collect", func() {})
	p.MustAnnotate("App.collect", Reduce{ID: "nope", Merge: func(any) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("dangling @Reduce id did not panic")
		}
	}()
	AnnotationAspects(p)
}

func TestNestedParallelRegions(t *testing.T) {
	pinWidth(t)
	p := weaver.NewProgram("t")
	var innerRuns atomic.Int32
	inner := p.Class("App").Proc("inner", func() { innerRuns.Add(1) })
	outer := p.Class("App").Proc("outer", func() { inner() })
	p.Use(ParallelRegion("call(* App.outer(..))").Named("outerRegion").Threads(2))
	p.Use(ParallelRegion("call(* App.inner(..))").Named("innerRegion").Threads(3))
	p.MustWeave()
	outer()
	if innerRuns.Load() != 6 {
		t.Fatalf("nested regions ran inner %d times, want 6", innerRuns.Load())
	}
}

func TestCombinedConstructCompose(t *testing.T) {
	// OpenMP's "parallel for" combined construct: region + for on the
	// same method, composed as one aspect module.
	p := weaver.NewProgram("t")
	const n = 100
	hits := make([]atomic.Int32, n)
	loop := p.Class("App").ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			hits[i].Add(1)
		}
	})
	parallelFor := Compose("ParallelFor",
		ParallelRegion("call(* App.loop(..))").Threads(4),
		ForShare("call(* App.loop(..))"),
	)
	p.Use(parallelFor)
	p.MustWeave()
	loop(0, n, 1)
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestAroundCustomAspect(t *testing.T) {
	// Case-specific mechanism: conditionally execute a method call
	// according to method parameters (paper §III.C last paragraph).
	p := weaver.NewProgram("t")
	var ran []int
	work := p.Class("App").KeyedProc("work", func(k int) { ran = append(ran, k) })
	skipOdd := Around("SkipOdd", "call(* App.work(..))", 55, false,
		func(c *weaver.Call, proceed func(*weaver.Call)) {
			if c.Key%2 == 0 {
				proceed(c)
			}
		})
	p.Use(skipOdd)
	p.MustWeave()
	for i := 0; i < 6; i++ {
		work(i)
	}
	if len(ran) != 3 || ran[0] != 0 || ran[1] != 2 || ran[2] != 4 {
		t.Fatalf("conditional execution ran %v", ran)
	}
}

func TestWeaveReportNamesAspects(t *testing.T) {
	p := weaver.NewProgram("t")
	p.Class("App").ForProc("loop", func(lo, hi, step int) {})
	p.MustAnnotate("App.loop", For{Schedule: sched.StaticCyclic})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()
	rep := p.Report()
	if len(rep) != 1 || len(rep[0].Advice) != 1 {
		t.Fatalf("unexpected report %+v", rep)
	}
	if rep[0].Advice[0] != "@For(App.loop)/for(staticCyclic)" {
		t.Fatalf("advice label = %q", rep[0].Advice[0])
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
