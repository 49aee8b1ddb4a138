package aomplib_test

import (
	"fmt"
	"sync/atomic"

	"aomplib"
)

// The minimal parallel loop from the package documentation: a for method
// exposes its iteration space, a parallel-region aspect makes the caller a
// team, and a for-sharing aspect splits the range across the team. After
// Unweave the same calls run with the original sequential semantics.
func Example_parallelLoop() {
	prog := aomplib.NewProgram("demo")
	cls := prog.Class("Demo")

	var sum atomic.Int64
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		var local int64
		for i := lo; i < hi; i += step {
			local += int64(i)
		}
		sum.Add(local)
	})
	run := cls.Proc("run", func() { loop(0, 1000, 1) })

	prog.Use(aomplib.ParallelRegion("call(* Demo.run(..))").Threads(4))
	prog.Use(aomplib.ForShare("call(* Demo.loop(..))"))
	prog.MustWeave()
	run() // parallel: 4 workers share the range
	fmt.Println("parallel sum:", sum.Load())

	prog.Unweave()
	sum.Store(0)
	run() // sequential again: the body runs its full range once
	fmt.Println("sequential sum:", sum.Load())

	// Output:
	// parallel sum: 499500
	// sequential sum: 499500
}

// The same composition in the annotation style of paper Fig. 5: inert
// annotations are attached to methods and translated into aspects by
// AnnotationAspects at weave time.
func Example_annotations() {
	prog := aomplib.NewProgram("demo")
	cls := prog.Class("Demo")

	var hits atomic.Int64
	work := cls.Proc("work", func() { hits.Add(1) })

	prog.MustAnnotate("Demo.work", aomplib.Parallel{Threads: 3})
	prog.Use(aomplib.AnnotationAspects(prog)...)
	prog.MustWeave()

	work() // every worker of the team runs the body
	fmt.Println("workers:", hits.Load())

	// Output:
	// workers: 3
}

// A @FutureTask method runs asynchronously once woven; its getter is the
// synchronisation point (@FutureResult). Unwoven, the future resolves
// synchronously and the program keeps its sequential semantics.
func ExampleFuture() {
	prog := aomplib.NewProgram("demo")
	cls := prog.Class("Demo")

	compute := cls.FutureProc("compute", func() any { return 6 * 7 })

	prog.Use(aomplib.FutureTaskSpawn("call(* Demo.compute(..))"))
	prog.MustWeave()
	f := compute()       // spawned asynchronously
	fmt.Println(f.Get()) // Get blocks until the value is produced

	prog.Unweave()
	fmt.Println(compute().Get()) // resolved synchronously

	// Output:
	// 42
	// 42
}

// Example_dataflow shows @Task + @Depend: two stages per cell, ordered by
// address-keyed dependence clauses instead of barriers; region end joins
// the whole pipeline before run returns.
func Example_dataflow() {
	prog := aomplib.NewProgram("dataflow")
	cls := prog.Class("Pipe")

	cells := make([]int, 4)
	stageA := cls.KeyedProc("stageA", func(k int) { cells[k] = k + 1 })
	stageB := cls.KeyedProc("stageB", func(k int) { cells[k] *= 10 })
	run := cls.Proc("run", func() {
		for k := range cells {
			stageA(k)
			stageB(k) // inout on &cells[k]: B(k) always runs after A(k)
		}
	})

	cellKey := aomplib.DepFn(func(k int) any { return &cells[k] })
	prog.MustAnnotate("Pipe.run", aomplib.Parallel{Threads: 4}, aomplib.Single{})
	prog.MustAnnotate("Pipe.stageA", aomplib.Task{}, aomplib.Depend{Out: []any{cellKey}})
	prog.MustAnnotate("Pipe.stageB", aomplib.Task{}, aomplib.Depend{InOut: []any{cellKey}})
	prog.Use(aomplib.AnnotationAspects(prog)...)
	prog.MustWeave()
	run()
	total := 0
	for _, v := range cells {
		total += v
	}
	fmt.Println(total)

	// Output:
	// 100
}
