package rt_test

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"aomplib/internal/core"
	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
	"aomplib/parallel"
)

// runWovenFor weaves a region of width workers around one @For loop over
// [0,n) under (kind, chunk) and runs it once.
func runWovenFor(kind sched.Kind, chunk, width, n int, body func(lo, hi, step int)) {
	p := weaver.NewProgram("claims")
	cls := p.Class("C")
	loop := cls.ForProc("loop", body)
	run := cls.Proc("run", func() { loop(0, n, 1) })
	p.Use(core.ParallelRegion("call(* C.run(..))").Threads(width))
	p.Use(core.ForShare("call(* C.loop(..))").Schedule(kind).Chunk(chunk))
	p.MustWeave()
	run()
}

// TestDispenseServesWholeClaims is the regression gate of "the claim is the
// unit of dispatch": a dynamic,16 loop over 1024 iterations calls its body
// once per cursor claim at T=2 — 14 four-chunk claims and 8 tail chunks
// (whichever worker draws them: the claim sequence depends on the cursor
// alone) — and once at T=1, where the loop resolves to one static block,
// through the woven @For, rt.ForSpan and parallel.ForRange alike, and still
// runs every iteration once. Serving a claim chunk by chunk would make the
// T=2 count 64.
func TestDispenseServesWholeClaims(t *testing.T) {
	const n, chunk = 1024, 16
	var calls atomic.Int32
	hits := make([]atomic.Int32, n)
	body := func(lo, hi int) {
		calls.Add(1)
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	}
	paths := []struct {
		name string
		run  func(width int)
	}{
		{"@For", func(width int) {
			runWovenFor(sched.Dynamic, chunk, width, n, func(lo, hi, _ int) { body(lo, hi) })
		}},
		{"rt.ForSpan", func(width int) {
			key := new(int)
			rt.Region(width, func(w *rt.Worker) {
				rt.ForSpan(w, sched.Space{Lo: 0, Hi: n, Step: 1}, sched.Dynamic, key, chunk,
					func(sub sched.Space, _ any) { body(sub.Lo, sub.Hi) }, nil)
			})
		}},
		{"parallel.ForRange", func(width int) {
			parallel.ForRange(0, n, body, parallel.WithThreads(width),
				parallel.WithSchedule(parallel.Dynamic), parallel.WithGrain(chunk))
		}},
	}
	for _, path := range paths {
		for _, tc := range []struct{ width, want int }{{1, 1}, {2, 22}} {
			calls.Store(0)
			for i := range hits {
				hits[i].Store(0)
			}
			path.run(tc.width)
			if got := int(calls.Load()); got != tc.want {
				t.Errorf("%s T=%d: %d body calls, want %d (one per claim)", path.name, tc.width, got, tc.want)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("%s T=%d: iteration %d ran %d times", path.name, tc.width, i, h)
				}
			}
		}
	}
}

// TestHugeChunkTerminates: a chunk near MaxInt — Chunk(math.MaxInt) is the
// natural spelling of "one chunk" — runs every iteration once and returns,
// on every dispenser-backed schedule, through the woven @For and
// parallel.For. The dynamic rows from MaxInt/4+1 up used to overflow the
// claim size negative, move the cursor backwards and livelock the team.
func TestHugeChunkTerminates(t *testing.T) {
	const n = 100
	for _, kind := range []sched.Kind{sched.Dynamic, sched.Guided, sched.Steal} {
		for _, chunk := range []int{math.MaxInt, math.MaxInt / 2, math.MaxInt/4 + 1, math.MaxInt / 4, 1 << 40} {
			var ran atomic.Int32
			paths := map[string]func(){
				"@For": func() {
					runWovenFor(kind, chunk, 2, n, func(lo, hi, _ int) { ran.Add(int32(hi - lo)) })
				},
				"parallel.For": func() {
					parallel.For(0, n, func(int) { ran.Add(1) }, parallel.WithThreads(2),
						parallel.WithSchedule(kind), parallel.WithGrain(chunk))
				},
			}
			for name, run := range paths {
				ran.Store(0)
				done := make(chan struct{})
				go func() {
					defer close(done)
					run()
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					// The team is spinning; nothing can be cleaned up.
					t.Fatalf("%s %v chunk=%d: still running after 10s, %d of %d iterations ran", name, kind, chunk, ran.Load(), n)
				}
				if got := ran.Load(); got != n {
					t.Errorf("%s %v chunk=%d: ran %d iterations, want %d", name, kind, chunk, got, n)
				}
			}
		}
	}
}
