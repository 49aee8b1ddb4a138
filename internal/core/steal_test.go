package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// TestStealScheduleMatchesSequential weaves @For(schedule=steal) over a
// write-per-iteration loop and checks the parallel result is identical to
// the sequential run — every iteration executed exactly once, no matter
// how ranges migrated between workers.
func TestStealScheduleMatchesSequential(t *testing.T) {
	const n, iters = 257, 9 // odd size: uneven static ranges
	p := weaver.NewProgram("t")
	data := make([]int64, n)
	loop := p.Class("App").ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			atomic.AddInt64(&data[i], int64(i)+1)
		}
	})
	region := p.Class("App").Proc("region", func() {
		for k := 0; k < iters; k++ {
			loop(0, n, 1)
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(ForShare("call(* App.loop(..))").Schedule(sched.Steal).Chunk(3))
	p.MustWeave()
	region()

	p.Unweave()
	want := make([]int64, n)
	copy(want, data)
	for i := range data {
		data[i] = 0
	}
	region() // sequential semantics restored
	for i := range data {
		if data[i] != want[i] || data[i] != int64(iters)*(int64(i)+1) {
			t.Fatalf("data[%d] = %d (parallel %d), want %d",
				i, data[i], want[i], int64(iters)*(int64(i)+1))
		}
	}
}

// TestStealScheduleAnnotationStyle drives the same schedule through the
// annotation front end.
func TestStealScheduleAnnotationStyle(t *testing.T) {
	const n = 100
	p := weaver.NewProgram("t")
	var sum atomic.Int64
	loop := p.Class("App").ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			sum.Add(int64(i))
		}
	})
	region := p.Class("App").Proc("region", func() { loop(0, n, 1) })
	p.MustAnnotate("App.region", Parallel{Threads: 3})
	p.MustAnnotate("App.loop", For{Schedule: sched.Steal})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()
	region()
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Fatalf("annotated steal sum = %d, want %d", sum.Load(), want)
	}
}

// TestOrderedDynamicManyEncountersRace hammers the lazily-allocated
// ordered condition variable: every encounter of the for construct builds
// a fresh shared state whose cond is allocated by whichever worker's
// ordered section arrives first, under a dynamic schedule so arrival order
// is nondeterministic. Run under -race this is the allocation-race check
// the single-encounter ordered test cannot provide.
func TestOrderedDynamicManyEncountersRace(t *testing.T) {
	const n, encounters = 32, 25
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
	region := p.Class("App").Proc("region", func() {
		for k := 0; k < encounters; k++ {
			loop(0, n, 1)
			// The dynamic schedule's implicit barrier pairs each encounter
			// before the next begins, so the global emit sequence is the
			// concatenation of per-encounter sequential orders.
		}
	})
	p.Use(ParallelRegion("call(* App.region(..))").Threads(4))
	p.Use(ForShare("call(* App.loop(..))").Schedule(sched.Dynamic))
	p.Use(OrderedSection("call(* App.emit(..))"))
	p.MustWeave()
	region()
	if len(order) != n*encounters {
		t.Fatalf("emitted %d values, want %d", len(order), n*encounters)
	}
	for j, v := range order {
		if v != j%n {
			t.Fatalf("order[%d] = %d, want %d — ordered violated", j, v, j%n)
		}
	}
}
