package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// All constructs must degrade to plain sequential execution when invoked
// outside a parallel region — the "sequential semantics" guarantee.
func TestConstructsOutsideRegionAreSequential(t *testing.T) {
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	var log []string
	add := func(s string) { log = append(log, s) }

	bar := cls.Proc("bar", func() { add("bar") })
	mst := cls.Proc("mst", func() { add("mst") })
	sgl := cls.Proc("sgl", func() { add("sgl") })
	ord := cls.KeyedProc("ord", func(k int) { add("ord") })
	crt := cls.Proc("crt", func() { add("crt") })

	p.Use(BarrierAroundPoint("call(* A.bar(..))"))
	p.Use(MasterSection("call(* A.mst(..))"))
	p.Use(SingleSection("call(* A.sgl(..))"))
	p.Use(OrderedSection("call(* A.ord(..))"))
	p.Use(CriticalSection("call(* A.crt(..))"))
	p.MustWeave()

	bar()
	mst()
	sgl()
	ord(3)
	crt()
	want := "bar mst sgl ord crt"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("sequential execution = %q, want %q", got, want)
	}
}

func TestValueSingleOutsideRegion(t *testing.T) {
	p := weaver.NewProgram("t")
	v := p.Class("A").ValueProc("v", func() any { return 5 })
	p.Use(SingleSection("call(* A.v(..))"))
	p.MustWeave()
	if got := v(); got != 5 {
		t.Fatalf("sequential single value = %v", got)
	}
}

func TestAnnotationSingleTaskOrderedCritical(t *testing.T) {
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	var singles, tasks atomic.Int32
	sgl := cls.Proc("sgl", func() { singles.Add(1) })
	wrk := cls.Proc("wrk", func() { tasks.Add(1) })
	join := cls.Proc("join", func() {})
	counter := 0
	crt := cls.Proc("crt", func() { counter++ })
	region := cls.Proc("region", func() {
		sgl()
		for i := 0; i < 50; i++ {
			crt()
		}
	})
	p.MustAnnotate("A.region", Parallel{Threads: 4})
	p.MustAnnotate("A.sgl", Single{})
	p.MustAnnotate("A.crt", Critical{ID: "c"})
	p.MustAnnotate("A.wrk", Task{})
	p.MustAnnotate("A.join", TaskWait{})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()

	region()
	if singles.Load() != 1 {
		t.Fatalf("@Single ran %d times", singles.Load())
	}
	if counter != 4*50 {
		t.Fatalf("@Critical counter = %d", counter)
	}
	for i := 0; i < 5; i++ {
		wrk()
	}
	join()
	if tasks.Load() != 5 {
		t.Fatalf("@Task/@TaskWait saw %d", tasks.Load())
	}
}

func TestAnnotationFutureTaskAndOrdered(t *testing.T) {
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	fut := cls.FutureProc("fut", func() any { return "done" })
	var order []int
	emit := cls.KeyedProc("emit", func(i int) { order = append(order, i) })
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			emit(i)
		}
	})
	region := cls.Proc("region", func() { loop(0, 20, 1) })

	p.MustAnnotate("A.fut", FutureTask{})
	p.MustAnnotate("A.emit", Ordered{})
	p.MustAnnotate("A.loop", For{Schedule: sched.Dynamic})
	p.MustAnnotate("A.region", Parallel{Threads: 3})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()

	if got := fut().Get(); got != "done" {
		t.Fatalf("@FutureTask = %v", got)
	}
	region()
	for i, v := range order {
		if v != i {
			t.Fatalf("@Ordered broke sequence at %d: %v", i, order)
		}
	}
}

func TestAnnotationReadersWriterPairing(t *testing.T) {
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	value := 0
	var readers atomic.Int32
	read := cls.Proc("read", func() {
		readers.Add(1)
		_ = value
		readers.Add(-1)
	})
	write := cls.Proc("write", func() {
		if readers.Load() != 0 {
			t.Error("writer overlapped readers")
		}
		value++
	})
	region := cls.Proc("region", func() {
		for i := 0; i < 100; i++ {
			if rt.ThreadID()%2 == 0 {
				write()
			} else {
				read()
			}
		}
	})
	p.MustAnnotate("A.region", Parallel{Threads: 4})
	p.MustAnnotate("A.read", Reader{ID: "rw"})
	p.MustAnnotate("A.write", Writer{ID: "rw"})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()
	region()
	if value != 200 {
		t.Fatalf("value = %d, want 200", value)
	}
}

func TestAnnotationCustomSchedule(t *testing.T) {
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	const n = 60
	hits := make([]atomic.Int32, n)
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			hits[i].Add(1)
		}
	})
	region := cls.Proc("region", func() { loop(0, n, 1) })
	reversed := func(id, nthreads int, sp sched.Space) []sched.Space {
		return []sched.Space{sched.Block(sp, nthreads, nthreads-1-id)}
	}
	p.MustAnnotate("A.region", Parallel{Threads: 4})
	p.MustAnnotate("A.loop", For{Schedule: sched.Custom, Custom: reversed})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()
	region()
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestForWaitForcesBarrierForStatic(t *testing.T) {
	// With .Wait(), no explicit BarrierAfter is needed: the phases of a
	// two-step pipeline stay ordered.
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	const n = 400
	src := make([]int64, n)
	dst := make([]int64, n)
	fill := cls.ForProc("fill", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			atomic.StoreInt64(&src[i], int64(i))
		}
	})
	copyRev := cls.ForProc("copyRev", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			// Reads an element another worker wrote: needs the barrier.
			atomic.StoreInt64(&dst[i], atomic.LoadInt64(&src[n-1-i]))
		}
	})
	region := cls.Proc("region", func() {
		fill(0, n, 1)
		copyRev(0, n, 1)
	})
	p.Use(ParallelRegion("call(* A.region(..))").Threads(4))
	p.Use(ForShare("call(* A.fill(..)) || call(* A.copyRev(..))").Wait())
	p.MustWeave()
	region()
	for i := range dst {
		if dst[i] != int64(n-1-i) {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], n-1-i)
		}
	}
}

func TestDynamicNoWaitSkipsBarrier(t *testing.T) {
	// NoWait on a dynamic for must not deadlock when only some workers
	// get iterations; correctness is simply full coverage.
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	var count atomic.Int32
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			count.Add(1)
		}
	})
	sync := cls.Proc("sync", func() {})
	region := cls.Proc("region", func() {
		loop(0, 3, 1) // fewer iterations than workers
		sync()
	})
	p.Use(ParallelRegion("call(* A.region(..))").Threads(4))
	p.Use(ForShare("call(* A.loop(..))").Schedule(sched.Dynamic).NoWait())
	p.Use(BarrierAfterPoint("call(* A.sync(..))"))
	p.MustWeave()
	region()
	if count.Load() != 3 {
		t.Fatalf("dynamic nowait ran %d iterations", count.Load())
	}
}

func TestPanicInsideWovenRegionPropagates(t *testing.T) {
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	work := cls.Proc("work", func() {
		if rt.ThreadID() == 1 {
			panic("worker failure")
		}
	})
	region := cls.Proc("region", func() { work() })
	p.Use(ParallelRegion("call(* A.region(..))").Threads(3))
	p.MustWeave()
	defer func() {
		if r := recover(); r != "worker failure" {
			t.Fatalf("recovered %v", r)
		}
	}()
	region()
}

func TestThreadLocalValuesSnapshot(t *testing.T) {
	p := weaver.NewProgram("t")
	cls := p.Class("A")
	tl := NewThreadLocal("call(* A.acc(..))", "x").
		InitFresh(func() any { return new(int) })
	acc := cls.ValueProc("acc", func() any { return nil })
	probe := cls.Proc("probe", func() {})
	var snapshot atomic.Int32
	region := cls.Proc("region", func() {
		*(acc().(*int)) = rt.ThreadID()
		probe()
	})
	p.Use(ParallelRegion("call(* A.region(..))").Threads(3))
	p.Use(tl)
	p.Use(BarrierBeforePoint("call(* A.probe(..))"))
	p.Use(Around("snap", "call(* A.probe(..))", 50, true,
		func(c *weaver.Call, proceed func(*weaver.Call)) {
			if c.Worker != nil && c.Worker.ID == 0 {
				snapshot.Store(int32(len(tl.Values(c.Worker))))
			}
			proceed(c)
		}))
	p.MustWeave()
	region()
	if snapshot.Load() != 3 {
		t.Fatalf("Values saw %d thread-local copies, want 3", snapshot.Load())
	}
}

func TestUnknownAnnotationIsInert(t *testing.T) {
	p := weaver.NewProgram("t")
	ran := false
	m := p.Class("A").Proc("m", func() { ran = true })
	p.MustAnnotate("A.m", customAnno{})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()
	m()
	if !ran {
		t.Fatal("method with unknown annotation did not run")
	}
	if rep := p.Report(); len(rep[0].Advice) != 0 {
		t.Fatalf("unknown annotation produced advice: %v", rep[0].Advice)
	}
}

type customAnno struct{}

func (customAnno) AnnotationName() string { return "Custom" }

func TestDuplicateThreadLocalIDPanics(t *testing.T) {
	p := weaver.NewProgram("t")
	p.Class("A").ValueProc("a", func() any { return nil })
	p.Class("A").ValueProc("b", func() any { return nil })
	p.MustAnnotate("A.a", ThreadLocalField{ID: "dup", Fresh: func() any { return new(int) }})
	p.MustAnnotate("A.b", ThreadLocalField{ID: "dup", Fresh: func() any { return new(int) }})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate thread-local id did not panic")
		}
	}()
	AnnotationAspects(p)
}

func TestThreadLocalWithoutInitFailsWeave(t *testing.T) {
	p := weaver.NewProgram("t")
	p.Class("A").ValueProc("acc", func() any { return nil })
	p.Use(NewThreadLocal("call(* A.acc(..))", "x")) // no initialiser
	if err := p.Weave(); err == nil {
		t.Fatal("uninitialised thread-local wove successfully")
	}
}

func TestNamedAspectsInReport(t *testing.T) {
	p := weaver.NewProgram("t")
	p.Class("A").Proc("m", func() {})
	p.Use(ParallelRegion("call(* A.m(..))").Named("MyRegion"))
	p.MustWeave()
	rep := p.Report()
	if rep[0].Advice[0] != "MyRegion/parallel" {
		t.Fatalf("named aspect missing from report: %v", rep[0].Advice)
	}
	if p.Aspects()[0] != "MyRegion" {
		t.Fatalf("aspect list = %v", p.Aspects())
	}
}

// Negative-step loops must be covered exactly once under every schedule.
func TestForNegativeStepCoverage(t *testing.T) {
	for _, kind := range []sched.Kind{sched.StaticBlock, sched.StaticCyclic, sched.Dynamic} {
		p := weaver.NewProgram("t")
		cls := p.Class("A")
		const n = 30
		hits := make([]atomic.Int32, n)
		loop := cls.ForProc("down", func(lo, hi, step int) {
			for i := lo; i > hi; i += step {
				hits[(n-1)-((n-1-i)/1)].Add(1) // i counts n-1..0
			}
		})
		region := cls.Proc("region", func() { loop(n-1, -1, -1) })
		p.Use(ParallelRegion("call(* A.region(..))").Threads(3))
		p.Use(ForShare("call(* A.down(..))").Schedule(kind))
		p.MustWeave()
		region()
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("%v: value %d ran %d times", kind, i, hits[i].Load())
			}
		}
	}
}
