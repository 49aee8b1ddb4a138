package rt

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTaskGroupNoLostWakeup stresses TaskGroup's lock-free counts: a waiter
// that parks must never sleep through the spawn, completion or drain that
// should wake it. Seeded rounds mix, inside regions, spawners (tasks that
// spawn tasks), helping waiters (TaskWait) and future getters whose
// producer is in flight on a team-mate (awaitEvent); outside any region,
// producers racing awaitEvent getters and a blocking Wait, and global-scope
// spawns joined by TaskWait. A lost wake-up hangs a round; the watchdog
// reports the seed.
func TestTaskGroupNoLostWakeup(t *testing.T) {
	seed := uint64(time.Now().UnixNano())
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	done := make(chan string, 1)
	go func() { done <- taskGroupStress(seed, rounds) }()
	select {
	case msg := <-done:
		if msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("seed %d: a waiter slept through its wake-up", seed)
	}
}

// taskGroupStress runs the rounds and returns "" or what went wrong.
func taskGroupStress(seed uint64, rounds int) string {
	var ran, spawned atomic.Int64
	leaf := func(any) { ran.Add(1) }
	parent := func(any) {
		ran.Add(1)
		spawned.Add(1)
		SpawnArg(Current(), leaf, nil, Deps{})
	}
	for r := range rounds {
		// Inside a region.
		Region(3, func(w *Worker) {
			rng := rand.New(rand.NewPCG(seed, uint64(r*8+w.ID)))
			for range 20 {
				for range rng.IntN(4) {
					spawned.Add(1)
					if rng.IntN(3) == 0 {
						SpawnArg(w, parent, nil, Deps{})
					} else {
						SpawnArg(w, leaf, nil, Deps{})
					}
				}
				switch rng.IntN(3) {
				case 0:
					TaskWait()
				case 1:
					yields := rng.IntN(3)
					f := SpawnFuture(Current(), func() any {
						for range yields {
							runtime.Gosched()
						}
						return yields
					}, Deps{})
					if got := f.Get(); got != yields {
						panic("future resolved to the wrong value")
					}
				}
			}
		})
		if ran.Load() != spawned.Load() {
			return "a region ended with spawned tasks unrun"
		}

		// Outside any region: producers race getters and a blocking Wait.
		rng := rand.New(rand.NewPCG(seed, uint64(r)+1<<32))
		g := NewTaskGroup()
		n := 1 + rng.IntN(8)
		g.Add(n)
		var resolved atomic.Int32
		for range n {
			yields := rng.IntN(3)
			go func() {
				for range yields {
					runtime.Gosched()
				}
				resolved.Add(1)
				if yields == 0 {
					g.notify()
				}
				g.Done()
			}()
		}
		var getters sync.WaitGroup
		for range 2 {
			k := int32(1 + rng.IntN(n))
			getters.Add(1)
			go func() {
				defer getters.Done()
				stop := func() bool { return resolved.Load() >= k }
				for !stop() {
					g.awaitEvent(g.eventStamp(), stop)
				}
			}()
		}
		for range rng.IntN(3) {
			spawned.Add(1)
			SpawnArg(nil, leaf, nil, Deps{})
		}
		TaskWait()
		g.Wait()
		getters.Wait()
		if g.Pending() != 0 || ran.Load() != spawned.Load() {
			return "a wait returned with work pending"
		}
	}
	return ""
}
