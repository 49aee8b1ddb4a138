package core

import (
	"runtime/debug"
	"sync"
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
