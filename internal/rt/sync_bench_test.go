package rt

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"aomplib/internal/sched"
)

// Contention microbenchmarks for the synchronisation hot paths: the team
// barrier phase, the shared loop-chunk dispenser, and the critical-section
// lock registries. CI runs them as a smoke and gates BarrierPhase/w=2 by
// ratio (a construct encounter costs at most three phases); their end-to-end
// cost shows in bench/'s jgf-sync and finegrain workloads.

// benchBarrierPhase measures one full barrier round trip across `workers`
// parties, every party being a real team worker (so arrivals ride the
// fan-in tree, not the anonymous root path).
func benchBarrierPhase(b *testing.B, workers int) {
	b.ReportAllocs()
	Region(workers, func(w *Worker) {
		bar := w.Team.Barrier()
		for i := 0; i < b.N; i++ {
			bar.WaitWorker(w)
		}
	})
}

func BenchmarkBarrierPhase(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) { benchBarrierPhase(b, w) })
	}
}

// BenchmarkBarrierPhaseWork is a barrier phase with work in it: every worker
// busy-waits ~20 µs ±50 % (seeded jitter) before it arrives, the shape of
// LUFact's per-column phases. The early arriver waits out its team-mate's
// lag; whether it spins or parks through it is what ns/op shows.
func BenchmarkBarrierPhaseWork(b *testing.B) {
	b.Run("w=2", func(b *testing.B) {
		b.ReportAllocs()
		Region(2, func(w *Worker) {
			rng := rand.New(rand.NewPCG(27, uint64(w.ID)))
			bar := w.Team.Barrier()
			for i := 0; i < b.N; i++ {
				work := time.Duration(10_000+rng.IntN(20_000)) * time.Nanosecond
				for start := time.Now(); time.Since(start) < work; {
				}
				bar.WaitWorker(w)
			}
		})
	})
}

// condBarrier is the pre-refactor mutex+cond team barrier, kept here as
// the measured baseline the tree barrier's ≥2x claim is made against.
type condBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     uint64
}

func newCondBarrier(parties int) *condBarrier {
	cb := &condBarrier{parties: parties}
	cb.cond = sync.NewCond(&cb.mu)
	return cb
}

func (b *condBarrier) wait() uint64 {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return gen
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
	return gen
}

func BenchmarkBarrierPhaseBaselineCond(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			bar := newCondBarrier(workers)
			Region(workers, func(w *Worker) {
				for i := 0; i < b.N; i++ {
					bar.wait()
				}
			})
		})
	}
}

// BenchmarkDispenseContended hammers one shared dynamic dispenser from a
// full team, chunk 1 — the worst-case schedule of the paper's Fig. 11 and
// the contention point the 4-chunk claim (NextBatch through ForContext)
// exists for. Reported ns/op covers `workers` draws (every worker draws
// b.N times).
func BenchmarkDispenseContended(b *testing.B) {
	const workers = 4
	b.ReportAllocs()
	Region(workers, func(w *Worker) {
		// Shared dispenser sized b.N * workers, so each worker performs
		// ~b.N draws before exhaustion (the first arriver arms it); drawn
		// one chunk per CAS, not through ForContext's 4-chunk claim.
		fc := BeginFor(w, "bench-disp", sched.Space{Lo: 0, Hi: b.N * workers, Step: 1}, sched.Dynamic, 1, nil)
		for {
			if _, _, ok := fc.slot.fs.disp.Next(); !ok {
				break
			}
		}
		fc.EndFor()
	})
}

// BenchmarkDispenseBatchedFor is the same contention measured through the
// real work-sharing path: BeginFor/Next, one claim of
// dispenseBatchChunks chunks per shared CAS and per Next. An op is
// `workers` iterations of chunk 1, which is one claim away from the tail:
// ns/op is the cost of a claim, and ns/iteration the figure to set against
// DispenseContended's ns/op ÷ workers.
func BenchmarkDispenseBatchedFor(b *testing.B) {
	const workers = 4
	b.ReportAllocs()
	sp := sched.Space{Lo: 0, Hi: b.N * workers, Step: 1}
	Region(workers, func(w *Worker) {
		fc := BeginFor(w, "bench-batched", sp, sched.Dynamic, 1, nil)
		for {
			if _, _, ok := fc.Next(); !ok {
				break
			}
		}
		fc.EndFor()
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*workers), "ns/iteration")
}

// BenchmarkNamedLockLookup measures the @Critical(id=...) registry under
// concurrent lookups of distinct ids: every lookup takes the one read lock.
// Steady-state woven critical sections never reach it (the advice caches
// the lock at weave time); this measures dynamic resolution.
func BenchmarkNamedLockLookup(b *testing.B) {
	b.ReportAllocs()
	ids := [8]string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := range ids {
		NamedLock(ids[i]) // pre-create: measure lookup, not insertion
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if NamedLock(ids[i&7]) == nil {
				b.Error("nil lock")
			}
			i++
		}
	})
}

// BenchmarkObjectLockLookup measures the captured-lock registry (pointer
// keys, one sync.Map) under concurrent lookups.
func BenchmarkObjectLockLookup(b *testing.B) {
	b.ReportAllocs()
	keys := [8]*int{}
	for i := range keys {
		keys[i] = new(int)
		ObjectLock(keys[i])
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if ObjectLock(keys[i&7]) == nil {
				b.Error("nil lock")
			}
			i++
		}
	})
}
