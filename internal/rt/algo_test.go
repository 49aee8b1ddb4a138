package rt

import (
	"sync/atomic"
	"testing"
	"time"

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

func TestTokenPoolCounts(t *testing.T) {
	p := NewTokenPool(3)
	if p.Free() != 3 {
		t.Fatalf("fresh pool Free = %d", p.Free())
	}
	for i := 0; i < 3; i++ {
		if !p.TryAcquire() {
			t.Fatalf("TryAcquire %d failed on a free pool", i)
		}
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded on an empty pool")
	}
	p.Release()
	if p.Free() != 1 {
		t.Fatalf("Free after release = %d", p.Free())
	}
	p.Acquire() // must take the free token without blocking
	if p.Free() != 0 {
		t.Fatalf("Free after acquire = %d", p.Free())
	}
}

func TestTokenPoolBlocksOffWorker(t *testing.T) {
	p := NewTokenPool(1)
	p.Acquire()
	done := make(chan struct{})
	go func() {
		p.Acquire() // plain goroutine: parks on the pool condvar
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Acquire returned with no token available")
	case <-time.After(20 * time.Millisecond):
	}
	p.Release()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire not woken by Release")
	}
}

// TestTokenPoolWorkerHelps is the one-worker pipeline shape: the only
// worker holds all tokens, and the releases it is waiting for can only
// come from tasks it must itself execute. Acquire must help.
func TestTokenPoolWorkerHelps(t *testing.T) {
	p := NewTokenPool(2)
	var ran atomic.Int32
	doneCh := make(chan struct{})
	go func() {
		Region(1, func(w *Worker) {
			for i := 0; i < 10; i++ {
				p.Acquire()
				Spawn(func() {
					ran.Add(1)
					p.Release()
				})
			}
		})
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("one-worker token loop deadlocked: Acquire did not help drain tasks")
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d release tasks, want 10", ran.Load())
	}
}
