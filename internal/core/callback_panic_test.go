package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// wantCallbackPanicContained calls run with bad set: the user callback's
// panic value must surface at the region's entry, and the poisoned team
// must be retired, not recycled. The next calls, with bad cleared, must
// give the sequential result (check returns "" when they do).
func wantCallbackPanicContained(t *testing.T, bad *atomic.Bool, want string, run func(), check func() string) {
	t.Helper()
	retired := rt.ReadPoolStats().Retired
	bad.Store(true)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		run()
	}()
	select {
	case got := <-done:
		if got != want {
			t.Fatalf("region entry re-raised %v, want %q", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("region hung after a callback panicked")
	}
	bad.Store(false)
	if now := rt.ReadPoolStats().Retired; now <= retired {
		t.Errorf("PoolStats().Retired %d → %d: the poisoned team was not retired", retired, now)
	}
	for round := 0; round < 3; round++ {
		run()
		if msg := check(); msg != "" {
			t.Fatalf("call %d after the panic: %s", round+1, msg)
		}
	}
}

// TestCustomSchedulePanicContained: a case-specific ScheduleFunc that
// panics on worker 2 of four.
func TestCustomSchedulePanicContained(t *testing.T) {
	pinWidth(t)
	const n = 1000
	p := weaver.NewProgram("custom-panic")
	cls := p.Class("C")
	var sum atomic.Int64
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			sum.Add(int64(i))
		}
	})
	run := cls.Proc("run", func() { loop(0, n, 1) })
	var bad atomic.Bool
	p.Use(ParallelRegion("call(* C.run(..))").Threads(4))
	p.Use(ForShare("call(* C.loop(..))").CustomSchedule(func(id, nthreads int, sp sched.Space) []sched.Space {
		if id == 2 && bad.Load() {
			panic("bad schedule")
		}
		return []sched.Space{sched.Block(sp, nthreads, id)}
	}))
	p.MustWeave()
	wantCallbackPanicContained(t, &bad, "bad schedule", func() { sum.Store(0); run() }, func() string {
		if got, want := sum.Load(), int64(n*(n-1)/2); got != want {
			return fmt.Sprintf("sum %d, want %d", got, want)
		}
		return ""
	})
}

// TestDepFnPanicContained: a @Depend DepFn that panics on one key while
// the region's single spawns a chain of dependent tasks.
func TestDepFnPanicContained(t *testing.T) {
	pinWidth(t)
	const cells = 8
	p := weaver.NewProgram("depfn-panic")
	cls := p.Class("D")
	var mu sync.Mutex
	var order []int
	touch := cls.KeyedProc("touch", func(k int) {
		mu.Lock()
		order = append(order, k)
		mu.Unlock()
	})
	run := cls.Proc("run", func() {
		for k := 0; k < cells; k++ {
			touch(k)
		}
	})
	var bad atomic.Bool
	var chain int
	p.MustAnnotate("D.run", Parallel{Threads: 4}, Single{})
	p.MustAnnotate("D.touch", Task{}, Depend{InOut: []any{DepFn(func(k int) any {
		if k == 5 && bad.Load() {
			panic("bad dep")
		}
		return &chain
	})}})
	p.Use(AnnotationAspects(p)...)
	p.MustWeave()
	wantCallbackPanicContained(t, &bad, "bad dep", func() { order = order[:0]; run() }, func() string {
		for k, got := range order {
			if got != k {
				return fmt.Sprintf("tasks ran in order %v", order)
			}
		}
		if len(order) != cells {
			return fmt.Sprintf("%d of %d tasks ran", len(order), cells)
		}
		return ""
	})
}

// TestWorkerValuePanicContained: a @ThreadLocalField InitFresh factory that
// panics on worker 1 of four, through the sole-WorkerValuer fast path (the
// thread-local advice alone on the accessor, answered without a Call) and
// through a stacked chain (a second advice reifies the call). Each worker
// adds its id+1 to its copy and @Reduce folds the copies into the total.
func TestWorkerValuePanicContained(t *testing.T) {
	for _, stacked := range []bool{false, true} {
		t.Run(fmt.Sprintf("stacked=%v", stacked), func(t *testing.T) {
			pinWidth(t)
			const width = 4
			p := weaver.NewProgram("worker-value-panic")
			cls := p.Class("L")
			var total int64
			acc := cls.ValueProc("acc", func() any { return &total })
			merge := cls.Proc("merge", func() {})
			run := cls.Proc("run", func() {
				*acc().(*int64) += int64(rt.Current().ID + 1)
				merge()
			})
			var bad atomic.Bool
			tl := NewThreadLocal("call(* L.acc(..))", "acc").InitFresh(func() any {
				if rt.Current().ID == 1 && bad.Load() {
					panic("bad local")
				}
				return new(int64)
			})
			p.Use(ParallelRegion("call(* L.run(..))").Threads(width), tl,
				ReducePoint("call(* L.merge(..))", tl, func(local any) { total += *local.(*int64) }))
			if stacked {
				p.Use(passThrough("call(* L.acc(..))"))
			}
			p.MustWeave()
			wantCallbackPanicContained(t, &bad, "bad local", func() { total = 0; run() }, func() string {
				if want := int64(width * (width + 1) / 2); total != want {
					return fmt.Sprintf("total %d, want %d", total, want)
				}
				return ""
			})
		})
	}
}
