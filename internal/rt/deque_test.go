package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func mkTask(g *TaskGroup, fn func()) *task {
	g.Add(1)
	return &task{fn: plainTask, arg: fn, group: g}
}

func TestDequeLIFOForOwnerFIFOForThief(t *testing.T) {
	g := NewTaskGroup()
	var d deque
	var got []int
	push := func(i int) { d.push(mkTask(g, func() { got = append(got, i) })) }
	for i := 0; i < 4; i++ {
		push(i)
	}
	// Thief takes the oldest.
	d.stealTop().run()
	// Owner takes the newest.
	d.popBottom().run()
	d.popBottom().run()
	d.stealTop().run()
	want := []int{0, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if d.popBottom() != nil || d.stealTop() != nil || d.size() != 0 {
		t.Fatal("deque not empty after draining")
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d", g.Pending())
	}
}

func TestDequeGrowsPreservingOrder(t *testing.T) {
	g := NewTaskGroup()
	var d deque
	const n = 100 // forces several ring growths
	var got []int
	for i := 0; i < n; i++ {
		i := i
		d.push(mkTask(g, func() { got = append(got, i) }))
	}
	for {
		tk := d.stealTop()
		if tk == nil {
			break
		}
		tk.run()
	}
	if len(got) != n {
		t.Fatalf("drained %d tasks, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("steal order broken at %d: %v", i, got[:i+1])
		}
	}
}

// Concurrent owner pops and sibling steals must hand out every task
// exactly once.
func TestDequeConcurrentStealExactlyOnce(t *testing.T) {
	g := NewTaskGroup()
	var d deque
	const n = 5000
	var hits [n]atomic.Int32
	for i := 0; i < n; i++ {
		i := i
		d.push(mkTask(g, func() { hits[i].Add(1) }))
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		steal := r%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var tk *task
				if steal {
					tk = d.stealTop()
				} else {
					tk = d.popBottom()
				}
				if tk == nil {
					return
				}
				tk.run()
			}
		}()
	}
	wg.Wait()
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, hits[i].Load())
		}
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d", g.Pending())
	}
}

// A task queued by worker 0 is deterministically stolen and executed by
// worker 1: worker 0 parks at a barrier right after spawning (a barrier is
// not a task scheduling point), so the only way worker 1's taskwait can
// complete is by stealing and running the task itself.
func TestTaskStolenBySiblingAtTaskWait(t *testing.T) {
	var executor atomic.Int32
	executor.Store(-1)
	var spawned atomic.Bool
	Region(2, func(w *Worker) {
		if w.ID == 0 {
			Spawn(func() { executor.Store(int32(ThreadID())) })
			spawned.Store(true)
			w.Team.Barrier().Wait() // park until worker 1 has joined the task
		} else {
			for !spawned.Load() {
				runtime.Gosched()
			}
			TaskWait() // must steal worker 0's task to make progress
			w.Team.Barrier().Wait()
		}
	})
	if executor.Load() != 1 {
		t.Fatalf("task executed by worker %d, want stolen by worker 1", executor.Load())
	}
}

func TestFindTaskPrefersOwnDeque(t *testing.T) {
	Region(2, func(w *Worker) {
		// Worker 1 waits at the barrier — not a scheduling point — so it
		// cannot reach the region-end drain and steal while worker 0 runs.
		defer w.Team.Barrier().WaitWorker(w)
		if w.ID != 0 {
			return
		}
		var ran []string
		Spawn(func() { ran = append(ran, "first") })
		Spawn(func() { ran = append(ran, "second") })
		// The spawner drains its own deque LIFO at the scheduling point.
		TaskWait()
		if len(ran) != 2 || ran[0] != "second" {
			t.Errorf("own-deque order = %v, want LIFO", ran)
		}
	})
}
