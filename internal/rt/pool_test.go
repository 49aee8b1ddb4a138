package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aomplib/internal/obs"
)

// resetPool gives a test a deterministic pool: hot teams on, cache empty.
// The returned func restores the previous configuration.
func resetPool(t *testing.T) func() {
	t.Helper()
	prevHot := SetHotTeams(false) // drains the cache
	SetHotTeams(true)
	return func() { SetHotTeams(prevHot) }
}

// captureTeam returns the team that served one region entry of size n.
func captureTeam(n int) *Team {
	var team *Team
	Region(n, func(w *Worker) {
		if w.ID == 0 {
			team = w.Team
		}
	})
	return team
}

func TestHotTeamReusedAcrossRegions(t *testing.T) {
	defer resetPool(t)()
	defer obs.EnableMetrics(obs.EnableMetrics(true))
	hits := ReadPoolStats().Hits
	t1 := captureTeam(3)
	e1 := t1.Epoch()
	t2 := captureTeam(3)
	if t1 != t2 {
		t.Fatalf("second region did not reuse the cached team: %p vs %p", t1, t2)
	}
	if t2.Epoch() != e1+1 {
		t.Fatalf("epoch did not advance across leases: %d -> %d", e1, t2.Epoch())
	}
	st := ReadPoolStats()
	if st.Hits != hits+1 {
		t.Fatalf("pool recorded %d hits for one warm entry, want 1", st.Hits-hits)
	}
	if st.IdleTeams == 0 {
		t.Fatal("team was not parked back in the pool")
	}
}

func TestHotTeamsOffSpawnsFreshTeams(t *testing.T) {
	prev := SetHotTeams(false)
	defer SetHotTeams(prev)
	if HotTeamsEnabled() {
		t.Fatal("gate did not disable")
	}
	if st := ReadPoolStats(); st.IdleTeams != 0 || st.IdleWorkers != 0 {
		t.Fatalf("disabling did not drain the pool: %+v", st)
	}
	t1 := captureTeam(3)
	t2 := captureTeam(3)
	if t1 == t2 {
		t.Fatal("teams reused with hot teams disabled")
	}
}

// A reused team must be indistinguishable from a fresh one: encounter
// counters, thread-local values and single/master claims all restart.
func TestHotTeamLeaseStateFresh(t *testing.T) {
	defer resetPool(t)()
	const n = 3
	for lease := 0; lease < 3; lease++ {
		var inits atomic.Int32
		var claims atomic.Int32
		Region(n, func(w *Worker) {
			if cu := w.cursor("lease-single"); cu.enc != 0 {
				t.Errorf("lease %d worker %d: first encounter index %d, want 0", lease, w.ID, cu.enc)
			}
			if w.cursor("lease-tls").tls != nil {
				t.Errorf("lease %d worker %d: thread-local leaked from previous lease", lease, w.ID)
			}
			w.TLS("lease-tls", func() any { inits.Add(1); return w.ID })
			if claim, _ := SingleBegin(w, "lease-single", false); claim {
				claims.Add(1)
			}
		})
		if inits.Load() != n {
			t.Fatalf("lease %d: %d TLS inits, want %d", lease, inits.Load(), n)
		}
		if claims.Load() != 1 {
			t.Fatalf("lease %d: single claimed %d times, want 1", lease, claims.Load())
		}
	}
}

// Nesting deeper than the pool can hold must degrade to cold spawns, not
// deadlock — leasing never blocks. Run under -race in CI (portable job
// included).
func TestHotTeamNestedDeeperThanPool(t *testing.T) {
	defer resetPool(t)()
	prevSize := SetPoolSize(2)
	defer SetPoolSize(prevSize)

	const depth = 8
	var leaves atomic.Int32
	var nest func(d int)
	nest = func(d int) {
		if d == 0 {
			leaves.Add(1)
			return
		}
		Region(2, func(w *Worker) {
			if w.ID == 0 {
				nest(d - 1)
			}
		})
	}
	nest(depth)
	if leaves.Load() != 1 {
		t.Fatalf("nested chain ran %d leaves, want 1", leaves.Load())
	}
	if st := ReadPoolStats(); st.IdleWorkers > 2 {
		t.Fatalf("pool holds %d idle workers, bound is 2", st.IdleWorkers)
	}
}

// A worker panic retires the team — the poisoned team must never be
// leased again — while futures queued on it still resolve.
func TestHotTeamPanicRetiresNeverRecycles(t *testing.T) {
	defer resetPool(t)()
	before := ReadPoolStats()
	var f *Future
	var poisoned *Team
	func() {
		defer func() {
			if r := recover(); r != "lease boom" {
				t.Fatalf("recovered %v, want lease boom", r)
			}
		}()
		Region(2, func(w *Worker) {
			if w.ID == 0 {
				poisoned = w.Team
				f = SpawnFuture(Current(), func() any { return "still resolves" }, Deps{})
			}
			w.Team.Barrier().Wait()
			panic("lease boom")
		})
	}()
	if got := f.Get(); got != "still resolves" {
		t.Fatalf("future after panicked lease = %v", got)
	}
	after := ReadPoolStats()
	if after.Retired != before.Retired+1 {
		t.Fatalf("retired count %d -> %d, want +1", before.Retired, after.Retired)
	}
	for i := 0; i < 4; i++ {
		if captureTeam(2) == poisoned {
			t.Fatal("poisoned team was recycled")
		}
	}
}

func TestSetPoolSizeBoundsAndEvicts(t *testing.T) {
	defer resetPool(t)()
	prev := SetPoolSize(8)
	defer SetPoolSize(prev)
	captureTeam(3)
	captureTeam(3) // reuses; one idle team of 3
	if st := ReadPoolStats(); st.IdleWorkers != 3 {
		t.Fatalf("idle workers = %d, want 3", st.IdleWorkers)
	}
	SetPoolSize(2) // 3 no longer fits: evict
	if st := ReadPoolStats(); st.IdleWorkers != 0 || st.IdleTeams != 0 {
		t.Fatalf("shrink did not evict: %+v", st)
	}
	// The size in active use always keeps one pooled team, even above the
	// bound — otherwise the bound would silently disable reuse for large
	// teams. It parks alone (pool emptied for it first).
	big := captureTeam(3)
	if st := ReadPoolStats(); st.IdleWorkers != 3 || st.IdleTeams != 1 {
		t.Fatalf("over-bound team in active use was not cached: %+v", st)
	}
	if captureTeam(3) != big {
		t.Fatal("over-bound team was not reused")
	}
	// A release of another size evicts it and parks within the bound.
	captureTeam(2)
	if st := ReadPoolStats(); st.IdleWorkers != 2 || st.IdleTeams != 1 {
		t.Fatalf("fitting team not cached after evicting the big one: %+v", st)
	}
}

// Concurrent outer regions lease distinct teams from one pool; tasks,
// barriers and futures keep their contracts on every lease. Run under
// -race in CI.
func TestHotTeamPoolConcurrentStress(t *testing.T) {
	defer resetPool(t)()
	const goroutines, iters, teamSize = 4, 50, 2
	var tasksRun atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var f *Future
				Region(teamSize, func(w *Worker) {
					if w.ID == 0 {
						Spawn(func() { tasksRun.Add(1) })
						f = SpawnFuture(Current(), func() any { return w.Team.Epoch() }, Deps{})
					}
					w.Team.Barrier().Wait()
				})
				if f.Get() == nil {
					panic("unresolved future after region")
				}
			}
		}()
	}
	wg.Wait()
	if got := tasksRun.Load(); got != goroutines*iters {
		t.Fatalf("tasks ran %d times, want %d", got, goroutines*iters)
	}
}

// A goroutine that inherited a worker context and outlives its region
// must still be able to Spawn safely while the team sits in the pool (or
// serves a later lease): the task runs, nothing deadlocks.
func TestStragglerSpawnAfterLeaseEnds(t *testing.T) {
	defer resetPool(t)()
	release := make(chan struct{})
	done := make(chan struct{})
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		go func() {
			<-release
			Spawn(func() { close(done) })
		}()
	})
	close(release) // the region has completed; its team is pooled
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler task never ran")
	}
}

// A full pool must make room for the just-finished team — the warmest,
// currently-in-demand size — by evicting stale inventory, not drop it.
// (Regression: a lone size-1 team parked by a 1-thread sweep must not
// starve every later size-4 release into cold spawns.)
func TestReleaseEvictsStaleSizesToMakeRoom(t *testing.T) {
	defer resetPool(t)()
	prev := SetPoolSize(4)
	defer SetPoolSize(prev)
	captureTeam(1) // parks a size-1 team
	big := captureTeam(4)
	if st := ReadPoolStats(); st.IdleWorkers != 4 || st.IdleTeams != 1 {
		t.Fatalf("size-4 release did not evict the stale size-1 team: %+v", st)
	}
	if captureTeam(4) != big {
		t.Fatal("subsequent size-4 entry did not reuse the parked team")
	}
}

func BenchmarkRegionEntryWarm(b *testing.B) {
	prev := SetHotTeams(true)
	defer SetHotTeams(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Region(2, func(w *Worker) {})
	}
}

func BenchmarkRegionEntryCold(b *testing.B) {
	prev := SetHotTeams(false)
	defer SetHotTeams(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Region(2, func(w *Worker) {})
	}
}

// TestHotTeamStressSetPoolSizeChurnPanics oversubscribes the pool — many
// goroutines entering nested 2–4-worker regions — while SetPoolSize
// shrinks and grows the cache underneath and periodic worker panics retire
// teams mid-traffic. The assertions are survival ones: every entry
// completes (no deadlock, no lost wakeup), panics propagate to exactly the
// entries that raised them, and the pool ends within its configured bound.
// Run under -race in CI.
func TestHotTeamStressSetPoolSizeChurnPanics(t *testing.T) {
	defer resetPool(t)()
	prevPool := SetPoolSize(4) // 2 two-worker teams: goroutines ≫ pool
	defer SetPoolSize(prevPool)

	const goroutines, iters = 16, 60
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		sizes := []int{2, 8, 1, 4}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			SetPoolSize(sizes[i%len(sizes)])
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var completed, panicsSeen atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				wantPanic := (g+i)%13 == 0
				func() {
					defer func() {
						if r := recover(); r != nil {
							if !wantPanic {
								panic(r)
							}
							panicsSeen.Add(1)
						} else if wantPanic {
							t.Error("worker panic did not propagate to the region entry")
						}
					}()
					Region(2+(g+i)%3, func(w *Worker) {
						if w.ID == 0 && i%4 == 0 {
							Region(2, func(inner *Worker) {})
						}
						if wantPanic && w.ID == w.Team.Size-1 {
							panic("churn")
						}
					})
				}()
				completed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	if got := completed.Load(); got != goroutines*iters {
		t.Fatalf("completed %d entries, want %d", got, goroutines*iters)
	}
	if panicsSeen.Load() == 0 {
		t.Fatal("stress schedule never exercised the panic-retire path")
	}
	// The churner may have left any bound in force; pin one and verify the
	// pool respects it once traffic has stopped.
	SetPoolSize(4)
	if st := ReadPoolStats(); st.IdleWorkers > 4 {
		t.Fatalf("pool over bound after churn: %d idle workers", st.IdleWorkers)
	}
}
