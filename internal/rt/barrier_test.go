package rt

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBarrierGenerationWraparound pins the overflow semantics of the
// generation counter: Wait returns the completing generation even as the
// uint64 wraps, and arrival accounting — which is modular, not tied to the
// generation value — keeps pairing phases across the wrap.
func TestBarrierGenerationWraparound(t *testing.T) {
	b := NewBarrier(1)
	b.gen.Store(math.MaxUint64)
	if g := b.Wait(); g != math.MaxUint64 {
		t.Fatalf("pre-wrap generation = %d, want MaxUint64", g)
	}
	if g := b.Wait(); g != 0 {
		t.Fatalf("post-wrap generation = %d, want 0", g)
	}
	if g := b.Wait(); g != 1 {
		t.Fatalf("second post-wrap generation = %d, want 1", g)
	}
}

// TestBarrierGenerationWraparoundMultiParty is the same wrap under real
// concurrency: every party of every phase must observe the same completing
// generation, across the wrap.
func TestBarrierGenerationWraparoundMultiParty(t *testing.T) {
	const n, phases = 4, 8
	b := NewBarrier(n)
	start := uint64(math.MaxUint64 - phases/2) // wrap mid-run
	b.gen.Store(start)
	gens := make([][phases]uint64, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				gens[id][p] = b.Wait()
			}
		}(id)
	}
	wg.Wait()
	for p := 0; p < phases; p++ {
		want := start + uint64(p) // wraps like the barrier does
		for id := 0; id < n; id++ {
			if gens[id][p] != want {
				t.Fatalf("party %d phase %d saw generation %d, want %d",
					id, p, gens[id][p], want)
			}
		}
	}
}

// TestBarrierParkPath forces every waiter through the spin-exhausted park
// path (a zero spin budget before every wait, and the releaser is delayed
// by the sheer party count) and checks phase pairing survives it. Run with
// -race this doubles as the missed-wakeup check for the parked protocol.
func TestBarrierParkPath(t *testing.T) {
	const n, phases = 8, 50
	b := NewBarrier(n)
	var before [phases]atomic.Int32
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				before[p].Add(1)
				b.spinNs.Store(0) // park at the second yield; wakes re-learn it
				b.Wait()
				if got := before[p].Load(); got != n {
					t.Errorf("phase %d: %d arrivals visible after barrier", p, got)
				}
			}
		}()
	}
	wg.Wait()
}

// TestNextSpin pins the learning rule: the budget averages measured wake
// latencies a quarter step at a time, within its clamps, and learns nothing
// from a latency that is not one.
func TestNextSpin(t *testing.T) {
	const us = int64(time.Microsecond)
	budget := barrierSpinFloor
	for i := 0; i < 20; i++ {
		budget = nextSpin(budget, 0, 100*us, 115*us) // 15 µs wakes
	}
	if d := budget - 15*us; d < -15*us/10 || d > 15*us/10 {
		t.Errorf("20 wakes of 15 µs from the floor: budget %d ns, want within 10%% of 15 µs", budget)
	}
	for _, c := range []struct {
		name                              string
		budget, parkedAt, releasedAt, now int64
		want                              int64
	}{
		{"quarter step", 10 * us, 0, 10 * us, 40 * us, 15 * us},
		{"above the ceiling", 400 * us, 0, 10 * us, 10_000 * us, barrierSpinCeil},
		{"below the floor", barrierSpinFloor, 0, 10 * us, 10*us + 100, barrierSpinFloor},
		{"zero latency", 10 * us, 0, 10 * us, 10 * us, 10 * us},
		{"negative latency", 10 * us, 0, 10 * us, 9 * us, 10 * us},
		{"stale stamp", 10 * us, 5 * us, 4 * us, 40 * us, 10 * us},
	} {
		if got := nextSpin(c.budget, c.parkedAt, c.releasedAt, c.now); got != c.want {
			t.Errorf("%s: nextSpin(%d, %d, %d, %d) = %d, want %d",
				c.name, c.budget, c.parkedAt, c.releasedAt, c.now, got, c.want)
		}
	}
}

// TestBarrierEarlyReleaseTeachesNothing: a waiter that spun out its budget
// but whose release landed before it could sleep never measured a wake.
// Whichever stamp it then reads — none yet, or the release's own written
// after it looked — must leave the budget where it was.
func TestBarrierEarlyReleaseTeachesNothing(t *testing.T) {
	const budget = int64(50 * time.Microsecond)
	b := NewBarrier(2)
	b.spinNs.Store(budget)
	var wg sync.WaitGroup
	wg.Add(2)
	b.mu.Lock() // hold the waiter off its sleep
	go func() { defer wg.Done(); b.Wait() }()
	for b.parked.Load() == 0 {
		runtime.Gosched()
	}
	go func() { defer wg.Done(); b.Wait() }() // the release, then it queues on mu
	for b.gen.Load() == 0 {
		runtime.Gosched()
	}
	b.mu.Unlock()
	wg.Wait()
	if got := b.spinNs.Load(); got != budget {
		t.Fatalf("a waiter that never slept moved the spin budget %d → %d ns", budget, got)
	}
}

// TestBarrierOversubscribedPhases: four workers on one P through phases of
// uneven work. A waiter yields every 64 polls, so the laggard it waits for
// still runs, and what the wakes teach stays within the clamps.
func TestBarrierOversubscribedPhases(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer resetPool(t)()
	const workers, phases = 4, 500
	var bar *Barrier
	var sink [workers]uint64
	if got := joined(t, func() {
		Region(workers, func(w *Worker) {
			rng := rand.New(rand.NewPCG(27, uint64(w.ID)))
			x := uint64(w.ID) + 1
			for p := 0; p < phases; p++ {
				for i := rng.IntN(20000); i > 0; i-- { // up to ~20 µs of xorshift
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				w.Team.Barrier().WaitWorker(w)
			}
			sink[w.ID] = x
			if w.ID == 0 {
				bar = w.Team.Barrier()
			}
		})
	}); got != nil {
		t.Fatalf("region panicked: %v", got)
	}
	if s := bar.spinNs.Load(); s < barrierSpinFloor || s > barrierSpinCeil {
		t.Fatalf("spin budget %d ns outside [%d, %d]", s, barrierSpinFloor, barrierSpinCeil)
	}
}

// TestBarrierTreeRouting drives a barrier wide enough to have a real
// arrival tree (parties > fan-in) from team workers, so leaf propagation
// — not the anonymous root path — carries the phases.
func TestBarrierTreeRouting(t *testing.T) {
	const n, phases = barrierFanIn*3 + 1, 25
	done := make([]atomic.Int32, phases)
	Region(n, func(w *Worker) {
		if w.Team.Barrier().leaves == nil {
			t.Errorf("no arrival tree for %d parties", n)
		}
		for p := 0; p < phases; p++ {
			done[p].Add(1)
			w.Team.Barrier().WaitWorker(w)
			if got := done[p].Load(); got != n {
				t.Errorf("phase %d: %d arrivals visible after barrier", p, got)
			}
		}
	})
}

// TestBarrierHotTeamLeaseRetireRace interleaves barrier phases with the
// hot-team lifecycle under -race: leases from the pool, clean recycles,
// panic retirement (which must not strand the other workers mid-phase),
// and pool drains from a concurrent goroutine. The barrier's monotonic
// counters must keep pairing phases across all of it — a clean lease
// always leaves the barrier between generations.
func TestBarrierHotTeamLeaseRetireRace(t *testing.T) {
	prev := SetHotTeams(true)
	defer SetHotTeams(prev)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { // pool churn: drains retire cached teams between leases
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				SetHotTeams(false)
				SetHotTeams(true)
			}
		}
	}()

	for i := 0; i < 25; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil && r != "retire" {
					panic(r)
				}
			}()
			Region(4, func(w *Worker) {
				for p := 0; p < 3; p++ {
					w.Team.Barrier().WaitWorker(w)
				}
				// Panic only after every barrier phase paired, so the
				// remaining workers are never stranded at one; the team is
				// poisoned and retired, never recycled.
				if i%5 == 3 && w.ID == 2 {
					panic("retire")
				}
			})
		}()
	}
	close(stop)
	churn.Wait()
}

// TestPanicWhileTeamMateInBarrier: a worker waiting in the team barrier
// waits for an arrival only its team-mates can give. When one of them
// panicked or left via Goexit the wait must end — spinning or parked — so
// the region joins and the panic re-raises. Standalone barriers have no
// team to fail and are not covered.
func TestPanicWhileTeamMateInBarrier(t *testing.T) {
	defer resetPool(t)()
	for _, waiter := range []int{0, 1} {
		for _, parked := range []bool{false, true} {
			die := func(w *Worker, exit func()) {
				if w.ID == waiter {
					w.Team.Barrier().WaitWorker(w)
					t.Errorf("waiter %d passed a barrier its team-mate never reached", waiter)
					return
				}
				if parked { // let the waiter exhaust its spin and park
					for w.Team.Barrier().parked.Load() == 0 {
						runtime.Gosched()
					}
				}
				exit()
			}
			if got := joined(t, func() {
				Region(2, func(w *Worker) { die(w, func() { panic("boom") }) })
			}); got != "boom" {
				t.Errorf("waiter %d (parked %v), team-mate panicked: region re-raised %v, want boom", waiter, parked, got)
			}
			if got := joined(t, func() {
				Region(2, func(w *Worker) { die(w, runtime.Goexit) })
			}); got != nil {
				t.Errorf("waiter %d (parked %v), team-mate exited: region panicked with %v", waiter, parked, got)
			}
		}
	}
	// The retired teams' successors start clean.
	var phases atomic.Int32
	Region(2, func(w *Worker) {
		w.Team.Barrier().WaitWorker(w)
		phases.Add(1)
	})
	if phases.Load() != 2 {
		t.Fatalf("region after failed leases: %d workers passed the barrier", phases.Load())
	}
}

// TestBarrierLastArriverRuns: WaitWorkerThen runs its function exactly once
// per phase, after every party's pre-barrier write and before any party is
// released — across the leaf/root tree (7 > fan-in) and flat barriers alike.
func TestBarrierLastArriverRuns(t *testing.T) {
	defer resetPool(t)()
	for _, n := range []int{1, 2, 3, 7} {
		const phases = 200
		slots := make([]int, n) // plain: the barrier is the only ordering
		sum, runs := 0, 0
		Region(n, func(w *Worker) {
			for p := 1; p <= phases; p++ {
				slots[w.ID] = p
				w.Team.Barrier().WaitWorkerThen(w, func(last *Worker) {
					if last.Team != w.Team {
						t.Errorf("last arriver belongs to another team")
					}
					runs++
					sum = 0
					for _, v := range slots {
						sum += v
					}
				})
				if sum != p*n {
					t.Errorf("n=%d phase %d: worker %d released with sum %d, want %d", n, p, w.ID, sum, p*n)
					return
				}
				w.Team.Barrier().WaitWorker(w) // nobody overwrites slots while a team-mate still reads sum
			}
		})
		if runs != phases {
			t.Errorf("n=%d: combining step ran %d times in %d phases", n, runs, phases)
		}
	}
}

// A combining step that panics never releases its phase: the waiters must
// leave through the team's failure path and the panic re-raise.
func TestBarrierLastArriverPanicFailsWaiters(t *testing.T) {
	defer resetPool(t)()
	for _, n := range []int{2, 7} {
		if got := joined(t, func() {
			Region(n, func(w *Worker) {
				w.Team.Barrier().WaitWorkerThen(w, func(*Worker) { panic("merge") })
			})
		}); got != "merge" {
			t.Errorf("n=%d: region re-raised %v, want merge", n, got)
		}
	}
}
