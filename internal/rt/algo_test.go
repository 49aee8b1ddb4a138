package rt

import (
	"sync/atomic"
	"testing"

	"aomplib/internal/sched"
)

// TestForSpanCoversEverySchedule drives ForSpan directly (the parallel
// package normally does) and checks the exactly-once contract for every
// schedule kind ForSpan accepts, including strided static-cyclic assignments.
func TestForSpanCoversEverySchedule(t *testing.T) {
	kinds := []sched.Kind{
		sched.StaticBlock, sched.StaticCyclic, sched.Dynamic, sched.Guided, sched.Steal, sched.Adaptive,
	}
	for _, kind := range kinds {
		for _, width := range []int{1, 2, 4, 7} {
			for _, n := range []int{0, 1, 5, 64, 1000} {
				hits := make([]int32, n)
				sp := sched.Space{Lo: 0, Hi: n, Step: 1}
				key := new(int)
				Region(width, func(w *Worker) {
					ForSpan(w, sp, kind, key, 3, func(sub sched.Space, _ any) {
						c := sub.Count()
						for i := 0; i < c; i++ {
							atomic.AddInt32(&hits[sub.At(i)], 1)
						}
					}, nil)
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("kind=%v width=%d n=%d: index %d run %d times", kind, width, n, i, h)
					}
				}
			}
		}
	}
}

func TestSpawnRangeCoversAndJoins(t *testing.T) {
	for _, grain := range []int{1, 7, 100, 10_000} {
		const n = 1000
		hits := make([]int32, n)
		Region(4, func(w *Worker) {
			if w.ID == 0 {
				TaskGroupScope(func() {
					SpawnRange(sched.Space{Lo: 0, Hi: n, Step: 1}, grain, func(sub sched.Space) {
						for i := sub.Lo; i < sub.Hi; i++ {
							atomic.AddInt32(&hits[i], 1)
						}
					})
				})
				// The scope join: every piece must be done here.
				for i, h := range hits {
					if atomic.LoadInt32(&hits[i]) != 1 {
						t.Errorf("grain=%d: index %d run %d times at scope exit", grain, i, h)
					}
				}
			}
		})
	}
}
