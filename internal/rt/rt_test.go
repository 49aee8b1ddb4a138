package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"aomplib/internal/sched"
)

func TestRegionSpawnsExactTeam(t *testing.T) {
	const n = 5
	var ids sync.Map
	var count atomic.Int32
	Region(n, func(w *Worker) {
		count.Add(1)
		if _, dup := ids.LoadOrStore(w.ID, true); dup {
			t.Errorf("duplicate worker id %d", w.ID)
		}
		if w.Team.Size != n {
			t.Errorf("team size %d, want %d", w.Team.Size, n)
		}
	})
	if count.Load() != n {
		t.Fatalf("body executed %d times, want %d", count.Load(), n)
	}
	for id := 0; id < n; id++ {
		if _, ok := ids.Load(id); !ok {
			t.Errorf("missing worker id %d", id)
		}
	}
}

// A region that sets no width runs GOMAXPROCS workers, read live at entry.
func TestRegionDefaultThreads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		var count atomic.Int32
		Region(0, func(w *Worker) { count.Add(1) })
		if DefaultThreads() != procs || int(count.Load()) != procs {
			t.Fatalf("GOMAXPROCS %d: DefaultThreads %d, default region ran %d workers",
				procs, DefaultThreads(), count.Load())
		}
	}
}

func TestCurrentInsideAndOutside(t *testing.T) {
	if Current() != nil {
		t.Fatal("Current() non-nil outside region")
	}
	if ThreadID() != 0 || NumThreads() != 1 {
		t.Fatal("sequential defaults wrong")
	}
	Region(3, func(w *Worker) {
		if Current() != w {
			t.Errorf("Current() != w inside region")
		}
		if ThreadID() != w.ID {
			t.Errorf("ThreadID() = %d, want %d", ThreadID(), w.ID)
		}
		if NumThreads() != 3 {
			t.Errorf("NumThreads() = %d, want 3", NumThreads())
		}
	})
	if Current() != nil {
		t.Fatal("Current() leaked after region")
	}
}

func TestNestedRegions(t *testing.T) {
	var inner atomic.Int32
	Region(2, func(outer *Worker) {
		Region(2, func(w *Worker) {
			inner.Add(1)
			if w.Team.Level() != 2 {
				t.Errorf("inner level = %d, want 2", w.Team.Level())
			}
			if w.Team.Parent() != outer {
				t.Errorf("inner parent mismatch")
			}
			if w.Team.Size != 2 {
				t.Errorf("inner team size = %d", w.Team.Size)
			}
		})
		if Current() != outer {
			t.Errorf("outer context not restored after nested region")
		}
	})
	if inner.Load() != 4 {
		t.Fatalf("nested bodies ran %d times, want 4", inner.Load())
	}
}

func TestRegionPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Region(4, func(w *Worker) {
		if w.ID == 2 {
			panic("boom")
		}
	})
}

func TestBarrierPhases(t *testing.T) {
	const n, phases = 4, 25
	b := NewBarrier(n)
	var before [phases]atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				before[p].Add(1)
				b.Wait()
				// After the barrier, every party must have incremented.
				if got := before[p].Load(); got != n {
					t.Errorf("phase %d: saw %d arrivals after barrier", p, got)
				}
			}
		}()
	}
	wg.Wait()
}

func TestBarrierGeneration(t *testing.T) {
	b := NewBarrier(1)
	if g0, g1 := b.Wait(), b.Wait(); g0 != 0 || g1 != 1 {
		t.Fatalf("generations = %d,%d want 0,1", g0, g1)
	}
}

func TestSingleClaimedOnce(t *testing.T) {
	key := "single-test"
	const n, encounters = 4, 10
	var execs [encounters]atomic.Int32
	Region(n, func(w *Worker) {
		for e := 0; e < encounters; e++ {
			claim, st := SingleBegin(w, key, true)
			v := -1
			if claim {
				execs[e].Add(1)
				v = e * 10
			}
			// Every worker — the claimer too — reads the claimer's value.
			if got := st.Broadcast(claim, v).(int); got != e*10 {
				t.Errorf("worker %d: broadcast value = %d, want %d", w.ID, got, e*10)
			}
		}
	})
	for e := 0; e < encounters; e++ {
		if execs[e].Load() != 1 {
			t.Errorf("encounter %d executed %d times, want 1", e, execs[e].Load())
		}
	}
}

func TestMasterOnlyWorkerZero(t *testing.T) {
	key := "master-test"
	var executor atomic.Int32
	executor.Store(-1)
	Region(4, func(w *Worker) {
		claim, st := MasterBegin(w, key, true)
		v := "not the master's"
		if claim {
			executor.Store(int32(w.ID))
			v = "v"
		}
		if st.Broadcast(claim, v) != "v" {
			t.Errorf("worker %d: master broadcast lost", w.ID)
		}
	})
	if executor.Load() != 0 {
		t.Fatalf("master executed by worker %d, want 0", executor.Load())
	}
}

func TestBeginForStaticEncountersIndependent(t *testing.T) {
	key := "for-test"
	sp := sched.Space{Lo: 0, Hi: 100, Step: 1}
	var sum atomic.Int64
	Region(4, func(w *Worker) {
		for e := 0; e < 3; e++ { // repeated encounters, as in LUFact's outer loop
			fc := BeginFor(w, key, sp, sched.StaticBlock, 1, nil)
			for sub, _, ok := fc.Next(); ok; sub, _, ok = fc.Next() {
				for i := sub.Lo; i < sub.Hi; i += sub.Step {
					sum.Add(int64(i))
				}
			}
			fc.EndFor()
		}
	})
	if sum.Load() != 3*99*100/2 {
		t.Fatalf("sum = %d, want %d", sum.Load(), 3*99*100/2)
	}
}

// TestForContextFillsCacheLines: a worker's ForContext shares no cache line
// with a team-mate's, whatever their heap neighbourhood.
func TestForContextFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(ForContext{}); size%64 != 0 {
		t.Fatalf("ForContext is %d bytes, not a whole number of 64-byte lines", size)
	}
}

func TestDynamicForExactlyOnce(t *testing.T) {
	key := "dynfor-test"
	const n = 500
	sp := sched.Space{Lo: 0, Hi: n, Step: 1}
	hits := make([]atomic.Int32, n)
	Region(4, func(w *Worker) {
		fc := BeginFor(w, key, sp, sched.Dynamic, 7, nil)
		defer fc.EndFor()
		for {
			sub, _, ok := fc.Next()
			if !ok {
				break
			}
			for i := sub.Lo; i < sub.Hi; i += sub.Step {
				hits[i].Add(1)
			}
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d executed %d times", i, hits[i].Load())
		}
	}
}

func TestOrderedSequencing(t *testing.T) {
	key := "ordered-test"
	const n = 64
	sp := sched.Space{Lo: 0, Hi: n, Step: 1}
	var order []int
	var mu sync.Mutex
	Region(4, func(w *Worker) {
		fc := BeginFor(w, key, sp, sched.Dynamic, 1, nil)
		defer fc.EndFor()
		for {
			sub, _, ok := fc.Next()
			if !ok {
				break
			}
			for i := sub.Lo; i < sub.Hi; i += sub.Step {
				fc.Ordered(i, func() {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				})
			}
		}
	})
	if len(order) != n {
		t.Fatalf("ordered ran %d sections, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("ordered sequence broken at %d: %v", i, order[:i+1])
		}
	}
}

func TestOrderedWithStep(t *testing.T) {
	key := "ordered-step"
	sp := sched.Space{Lo: 3, Hi: 30, Step: 3}
	var order []int
	var mu sync.Mutex
	Region(3, func(w *Worker) {
		fc := BeginFor(w, key, sp, sched.Dynamic, 1, nil)
		defer fc.EndFor()
		for {
			sub, _, ok := fc.Next()
			if !ok {
				break
			}
			for i := sub.Lo; i < sub.Hi; i += sub.Step {
				fc.Ordered(i, func() {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				})
			}
		}
	})
	want := sp.Values()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNamedLockSharedAcrossIds(t *testing.T) {
	if NamedLock("a") != NamedLock("a") {
		t.Fatal("same id produced different locks")
	}
	if NamedLock("a") == NamedLock("b") {
		t.Fatal("different ids share a lock")
	}
}

func TestObjectLockPerObject(t *testing.T) {
	type obj struct{ _ int }
	a, b := &obj{}, &obj{}
	if ObjectLock(a) != ObjectLock(a) {
		t.Fatal("same object produced different locks")
	}
	if ObjectLock(a) == ObjectLock(b) {
		t.Fatal("different objects share a lock")
	}
}

func TestLockTableMutualExclusionPerKey(t *testing.T) {
	tbl := NewLockTable(8)
	counters := make([]int, 8) // unsynchronised: protected only by the table
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := i % 8
				tbl.Lock(k)
				counters[k]++
				tbl.Unlock(k)
			}
		}()
	}
	wg.Wait()
	for k, c := range counters {
		if c != 8*1000/8 {
			t.Fatalf("counter[%d] = %d, want 1000", k, c)
		}
	}
}

func TestLockTableNegativeKey(t *testing.T) {
	tbl := NewLockTable(4)
	tbl.Lock(-3) // must not panic
	tbl.Unlock(-3)
}

func TestTaskGroupWaitsForLateTasks(t *testing.T) {
	g := NewTaskGroup()
	var done atomic.Int32
	g.Add(1)
	go func() {
		// task that spawns another task before finishing
		g.Add(1)
		go func() {
			done.Add(1)
			g.Done()
		}()
		done.Add(1)
		g.Done()
	}()
	g.Wait()
	if done.Load() != 2 {
		t.Fatalf("Wait returned before tasks finished: %d", done.Load())
	}
	if g.Pending() != 0 {
		t.Fatalf("pending = %d", g.Pending())
	}
}

func TestSpawnInsideRegionJoinsAtRegionEnd(t *testing.T) {
	var done atomic.Int32
	Region(2, func(w *Worker) {
		Spawn(func() {
			// Task inherits the worker context of its spawner.
			if Current() == nil {
				t.Error("task lost worker context")
			}
			done.Add(1)
		})
	})
	if done.Load() != 2 {
		t.Fatalf("region exited before tasks completed: %d", done.Load())
	}
}

func TestFutureResolution(t *testing.T) {
	f := SpawnFuture(Current(), func() any { return 42 }, Deps{})
	if got := f.Get(); got != 42 {
		t.Fatalf("future = %v, want 42", got)
	}
	if !f.Resolved() {
		t.Fatal("future not resolved after Get")
	}
	globalTasks.Wait()
}

func TestTLSInitialisedPerWorker(t *testing.T) {
	key := "tls-test"
	var inits atomic.Int32
	Region(4, func(w *Worker) {
		v1 := w.TLS(key, func() any { inits.Add(1); return w.ID * 100 })
		v2 := w.TLS(key, func() any { t.Error("factory re-ran"); return nil })
		if v1 != w.ID*100 || v2 != v1 {
			t.Errorf("worker %d: tls %v/%v", w.ID, v1, v2)
		}
		w.TLSDelete(key)
		if w.cursor(key).tls != nil {
			t.Errorf("tls survived delete")
		}
	})
	if inits.Load() != 4 {
		t.Fatalf("factory ran %d times, want 4", inits.Load())
	}
}

// Property: a region always reduces correctly when each worker accumulates
// a static block and results are merged — the canonical data-parallel
// pattern every benchmark relies on.
func TestRegionBlockSumProperty(t *testing.T) {
	f := func(count uint16, nth uint8) bool {
		n := int(count % 5000)
		threads := int(nth%6) + 1
		data := make([]int64, n)
		var want int64
		for i := range data {
			data[i] = int64(i*i%97 - 31)
			want += data[i]
		}
		var got atomic.Int64
		Region(threads, func(w *Worker) {
			sub := sched.Block(sched.Space{Lo: 0, Hi: n, Step: 1}, threads, w.ID)
			var local int64
			for i := sub.Lo; i < sub.Hi; i += sub.Step {
				local += data[i]
			}
			got.Add(local)
		})
		return got.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceCleanup(t *testing.T) {
	var team *Team
	Region(3, func(w *Worker) {
		if w.ID == 0 {
			team = w.Team
		}
		for e := 0; e < 50; e++ {
			fc := BeginFor(w, "cleanup", sched.Space{Lo: 0, Hi: 9, Step: 1}, sched.Dynamic, 1, nil)
			for {
				if _, _, ok := fc.Next(); !ok {
					break
				}
			}
			fc.EndFor()
		}
	})
	if p := team.PendingInstances(); p != 0 {
		t.Fatalf("%d construct instances leaked", p)
	}
}

func BenchmarkRegionEntry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Region(2, func(w *Worker) {})
	}
}

func BenchmarkBarrier(b *testing.B) {
	Region(2, func(w *Worker) {
		for i := 0; i < b.N; i++ {
			w.Team.Barrier().Wait()
		}
	})
}
