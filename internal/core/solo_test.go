package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// TestNarrowedEntryIsSequential weaves a Threads(2) region that is not
// pinned, so it learns to run on a team of one, around two encounters of a
// dynamic @For whose body emits through @Ordered and adds into a
// @ThreadLocalField that @Reduce merges, followed by a @Single. Every entry,
// narrowed or not, must produce the sequential result: every iteration once,
// ordered sections in iteration order, one single, the sequential sum. Once
// narrowed, each loop encounter is one static block: one body call. It
// stops after 100 narrowed entries.
func TestNarrowedEntryIsSequential(t *testing.T) {
	const n, entries = 16, 400
	p := weaver.NewProgram("narrowed")
	cls := p.Class("N")
	var (
		total   int // the reduction's global; merged inside the team barrier
		global  int
		mu      sync.Mutex
		order   []int
		calls   [2]atomic.Int32 // body calls per loop encounter
		hits    [2 * n]atomic.Int32
		singles atomic.Int32
		width   atomic.Int32
	)
	acc := cls.ValueProc("acc", func() any { return &global })
	emit := cls.KeyedProc("emit", func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		calls[lo/n].Add(1)
		local := acc().(*int)
		for i := lo; i < hi; i += step {
			hits[i].Add(1)
			*local += i
			emit(i)
		}
	})
	reduce := cls.Proc("reduce", func() {})
	single := cls.Proc("single", func() { singles.Add(1) })
	run := cls.Proc("run", func() {
		if ThreadID() == 0 {
			width.Store(int32(NumThreads()))
		}
		loop(0, n, 1)
		loop(n, 2*n, 1)
		reduce()
		single()
	})
	tl := NewThreadLocal("call(* N.acc(..))", "acc").InitFresh(func() any { return new(int) })
	p.Use(ParallelRegion("call(* N.run(..))").Threads(2), tl)
	p.Use(ForShare("call(* N.loop(..))").Schedule(sched.Dynamic).Chunk(4))
	p.Use(OrderedSection("call(* N.emit(..))"))
	p.Use(ReducePoint("call(* N.reduce(..))", tl, func(local any) { total += *(local.(*int)) }))
	p.Use(SingleSection("call(* N.single(..))"))
	p.MustWeave()

	const want = (2*n - 1) * 2 * n / 2 // 0 + 1 + … + 2n-1
	narrowed := 0
	for e := 0; e < entries && narrowed < 100; e++ {
		total, order = 0, order[:0]
		singles.Store(0)
		for i := range calls {
			calls[i].Store(0)
		}
		for i := range hits {
			hits[i].Store(0)
		}
		run()
		if total != want {
			t.Fatalf("entry %d (width %d): reduced %d, want the sequential %d", e, width.Load(), total, want)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("entry %d (width %d): iteration %d ran %d times", e, width.Load(), i, h)
			}
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("entry %d (width %d): ordered section %d emitted %d — out of order", e, width.Load(), i, v)
			}
		}
		if s := singles.Load(); s != 1 {
			t.Fatalf("entry %d (width %d): single ran %d times", e, width.Load(), s)
		}
		if width.Load() == 1 {
			narrowed++
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("narrowed entry %d: loop encounter %d made %d body calls, want 1", e, i, c)
				}
			}
		}
	}
	if narrowed == 0 {
		// With the portable gls backend a worker lookup walks the stack,
		// and the body's lookups outweigh eight hand-offs: rt's grain guard
		// never tries the region narrow. TestRegionWidthNarrowsTinyRegion
		// covers narrowing, TestExactlyOnceMatrix the pinned width 1.
		t.Skipf("the region never ran narrow in %d entries: no narrowed entry to check", entries)
	}
}
