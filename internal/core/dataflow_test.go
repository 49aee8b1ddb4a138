package core

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// TestTaskDependAnnotationOrdersChain: @Task + @Depend woven through the
// annotation path serializes an inout chain across the team.
func TestTaskDependAnnotationOrdersChain(t *testing.T) {
	prog := weaver.NewProgram("df")
	cls := prog.Class("DF")
	var mu sync.Mutex
	var seq []int
	var x int
	step := cls.KeyedProc("step", func(k int) {
		mu.Lock()
		seq = append(seq, k)
		mu.Unlock()
	})
	run := cls.Proc("run", func() {
		for k := 0; k < 50; k++ {
			step(k)
		}
	})
	prog.MustAnnotate("DF.run", Parallel{Threads: 4}, Single{})
	prog.MustAnnotate("DF.step", Task{}, Depend{InOut: []any{&x}})
	prog.Use(AnnotationAspects(prog)...)
	prog.MustWeave()
	run()
	if len(seq) != 50 {
		t.Fatalf("ran %d steps, want 50", len(seq))
	}
	for i, v := range seq {
		if v != i {
			t.Fatalf("dependent chain out of order: %v", seq)
		}
	}
}

// TestTaskDependDynamicKeys: DepFn elements resolve per call against the
// keyed method's key, and nil results are skipped.
func TestTaskDependDynamicKeys(t *testing.T) {
	const cells = 8
	prog := weaver.NewProgram("dyn")
	cls := prog.Class("Dyn")
	tags := make([]int, cells)
	order := make([][]int, cells)
	var mu sync.Mutex
	var clock int
	touch := cls.KeyedProc("touch", func(k int) {
		mu.Lock()
		clock++
		order[k] = append(order[k], clock)
		mu.Unlock()
	})
	run := cls.Proc("run", func() {
		for round := 0; round < 4; round++ {
			for k := 0; k < cells; k++ {
				touch(k)
			}
		}
	})
	prog.MustAnnotate("Dyn.run", Parallel{Threads: 3}, Single{})
	prog.MustAnnotate("Dyn.touch", Task{}, Depend{
		In: []any{DepFn(func(k int) any {
			if k == 0 {
				return nil // no left neighbour
			}
			return &tags[k-1]
		})},
		InOut: []any{DepFn(func(k int) any { return &tags[k] })},
	})
	prog.Use(AnnotationAspects(prog)...)
	prog.MustWeave()
	run()
	for k := 0; k < cells; k++ {
		if len(order[k]) != 4 {
			t.Fatalf("cell %d touched %d times, want 4", k, len(order[k]))
		}
		for r := 1; r < 4; r++ {
			if order[k][r] <= order[k][r-1] {
				t.Fatalf("cell %d rounds out of order: %v", k, order[k])
			}
		}
	}
}

// TestDependWithoutTaskPanics: @Depend must ride on @Task/@FutureTask.
func TestDependWithoutTaskPanics(t *testing.T) {
	prog := weaver.NewProgram("bad")
	cls := prog.Class("Bad")
	cls.Proc("m", func() {})
	var x int
	prog.MustAnnotate("Bad.m", Depend{In: []any{&x}})
	defer func() {
		if recover() == nil {
			t.Fatal("AnnotationAspects accepted @Depend without @Task")
		}
	}()
	AnnotationAspects(prog)
}

// TestFutureTaskDependAnnotation: @FutureTask + @Depend producers observe
// their predecessors' writes.
func TestFutureTaskDependAnnotation(t *testing.T) {
	prog := weaver.NewProgram("fdep")
	cls := prog.Class("F")
	var x int
	set := cls.Proc("set", func() { x = 21 })
	double := cls.FutureProc("double", func() any { return x * 2 })
	var got any
	run := cls.Proc("run", func() {
		set()
		got = double().Get()
	})
	prog.MustAnnotate("F.run", Parallel{Threads: 2}, Single{})
	prog.MustAnnotate("F.set", Task{}, Depend{Out: []any{&x}})
	prog.MustAnnotate("F.double", FutureTask{}, Depend{In: []any{&x}})
	prog.Use(AnnotationAspects(prog)...)
	prog.MustWeave()
	run()
	if got != 42 {
		t.Fatalf("dependent future resolved to %v, want 42", got)
	}
}

// TestTaskGroupAnnotationScopes: a @TaskGroup method joins its own spawned
// tasks (and their descendants) before returning.
func TestTaskGroupAnnotationScopes(t *testing.T) {
	prog := weaver.NewProgram("tg")
	cls := prog.Class("TG")
	var inner atomic.Int32
	leaf := cls.Proc("leaf", func() { inner.Add(1) })
	var sawAllInside atomic.Bool
	group := cls.Proc("group", func() {
		for i := 0; i < 10; i++ {
			leaf()
		}
	})
	run := cls.Proc("run", func() {
		group()
		if inner.Load() == 10 {
			sawAllInside.Store(true)
		}
	})
	prog.MustAnnotate("TG.run", Parallel{Threads: 3}, Single{})
	prog.MustAnnotate("TG.group", TaskGroup{})
	prog.MustAnnotate("TG.leaf", Task{})
	prog.Use(AnnotationAspects(prog)...)
	prog.MustWeave()
	run()
	if !sawAllInside.Load() {
		t.Fatalf("@TaskGroup returned before its %d tasks completed (saw %d)", 10, inner.Load())
	}
}

// TestTaskLoopCoversSpaceOnce: @TaskLoop executes every iteration exactly
// once and joins before returning.
func TestTaskLoopCoversSpaceOnce(t *testing.T) {
	const n = 1000
	prog := weaver.NewProgram("tl")
	cls := prog.Class("TL")
	hits := make([]atomic.Int32, n)
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			hits[i].Add(1)
		}
	})
	run := cls.Proc("run", func() { loop(0, n, 1) })
	prog.MustAnnotate("TL.run", Parallel{Threads: 4}, Single{})
	prog.MustAnnotate("TL.loop", TaskLoop{Grainsize: 64})
	prog.Use(AnnotationAspects(prog)...)
	prog.MustWeave()
	run()
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("iteration %d executed %d times, want 1", i, got)
		}
	}
}

// TestTaskLoopPartCount: grainsize controls the decomposition (parts hold
// at least grainsize iterations).
func TestTaskLoopPartCount(t *testing.T) {
	prog := weaver.NewProgram("tlg")
	cls := prog.Class("TL")
	var parts atomic.Int32
	var iters atomic.Int32
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		parts.Add(1)
		iters.Add(int32(hi - lo))
		if hi-lo < 10 {
			t.Errorf("part [%d,%d) smaller than grainsize 10", lo, hi)
		}
	})
	run := cls.Proc("run", func() { loop(0, 100, 1) })
	prog.MustAnnotate("TL.run", Parallel{Threads: 2}, Single{})
	prog.MustAnnotate("TL.loop", TaskLoop{Grainsize: 10})
	prog.Use(AnnotationAspects(prog)...)
	prog.MustWeave()
	run()
	if got := parts.Load(); got != 10 {
		t.Fatalf("taskloop split into %d parts, want 10", got)
	}
	if got := iters.Load(); got != 100 {
		t.Fatalf("taskloop covered %d iterations, want 100", got)
	}
}

// TestTaskLoopSequentialOutsideRegion: without a worker context the woven
// method runs inline, preserving sequential semantics.
func TestTaskLoopSequentialOutsideRegion(t *testing.T) {
	prog := weaver.NewProgram("tls")
	cls := prog.Class("TL")
	var calls, total int
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		calls++
		for i := lo; i < hi; i += step {
			total += i
		}
	})
	prog.MustAnnotate("TL.loop", TaskLoop{Grainsize: 5})
	prog.Use(AnnotationAspects(prog)...)
	prog.MustWeave()
	loop(0, 10, 1)
	if calls != 1 {
		t.Fatalf("outside a region the loop body ran %d times, want 1 inline call", calls)
	}
	if total != 45 {
		t.Fatalf("total = %d, want 45", total)
	}
}

// TestTaskLoopRequiresForMethod: weaving @TaskLoop onto a plain proc fails.
func TestTaskLoopRequiresForMethod(t *testing.T) {
	prog := weaver.NewProgram("tlbad")
	cls := prog.Class("TL")
	cls.Proc("notAForMethod", func() {})
	prog.MustAnnotate("TL.notAForMethod", TaskLoop{})
	prog.Use(AnnotationAspects(prog)...)
	if err := prog.Weave(); err == nil {
		t.Fatal("weave accepted @TaskLoop on a non-for method")
	}
}

// raceBuild reports whether the test binary runs under the race detector,
// whose sync.Pool drops a share of its Puts at random: pooled paths then
// allocate, so an allocation count is not asserted there.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestTaskDependSpawnAllocatesNothing: a woven @Task + @Depend spawn draws
// its Call copy and task from pools and hands the worker the chain already
// looked up, so a width-2 region whose worker 0 spawns 100 dependent tasks
// and waits allocates nothing in the steady state — with a static clause
// and with a DepFn clause resolved into pooled scratch. The tasks still run
// in dependence order.
func TestTaskDependSpawnAllocatesNothing(t *testing.T) {
	pinWidth(t)
	const spawns = 100
	var cell int
	var cells [4]int
	for _, tc := range []struct {
		name string
		deps Depend
	}{
		{"static", Depend{InOut: []any{&cell}}},
		{"depfn", Depend{InOut: []any{DepFn(func(k int) any { return &cells[k%len(cells)] })}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := weaver.NewProgram("depalloc")
			cls := p.Class("D")
			var last [len(cells)]int
			ordered := true
			step := cls.KeyedProc("step", func(k int) {
				if k < last[k%len(cells)] {
					ordered = false
				}
				last[k%len(cells)] = k
			})
			wait := cls.Proc("wait", func() {})
			run := cls.Proc("run", func() {
				if rt.ThreadID() != 0 {
					return
				}
				for k := 0; k < spawns; k++ {
					step(k)
				}
				wait()
			})
			p.Use(ParallelRegion("call(* D.run(..))").Threads(2))
			p.Use(TaskSpawn("call(* D.step(..))").Depend(tc.deps))
			p.Use(TaskWaitPoint("call(* D.wait(..))"))
			p.MustWeave()
			allocs := testing.AllocsPerRun(20, func() {
				last = [len(cells)]int{}
				run()
			})
			if !ordered {
				t.Error("dependent tasks ran out of spawn order")
			}
			if n := allocs / spawns; allocs != 0 && !raceBuild() {
				t.Errorf("%v allocs per run of %d dependent spawns (%.2f per spawn), want 0", allocs, spawns, n)
			}
		})
	}
}
