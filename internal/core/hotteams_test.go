package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// Weaving and unweaving must stay safe while hot regions run: calls that
// started on either chain finish correctly, and every call executes its
// full iteration space exactly once — woven (region + for) or not.
// Run under -race in CI, portable-gls job included. The width is pinned:
// on one worker a chain swap between team-mates' loads cannot show.
func TestHotTeamsWeaveUnweaveInterleaved(t *testing.T) {
	pinWidth(t)
	defer func(prev bool) { rt.SetHotTeams(prev) }(rt.SetHotTeams(true))

	const n, calls, weaves = 512, 120, 60
	p := weaver.NewProgram("stress")
	var sum atomic.Int64
	loop := p.Class("S").ForProc("loop", func(lo, hi, step int) {
		var local int64
		for i := lo; i < hi; i += step {
			local += int64(i)
		}
		sum.Add(local)
	})
	run := p.Class("S").Proc("run", func() { loop(0, n, 1) })
	p.Use(ParallelRegion("call(* S.run(..))").Threads(2))
	p.Use(ForShare("call(* S.loop(..))"))

	// Widths are counted at the fork, from the trace: a count inside the
	// body (gls lookups on every worker) shifts the window this test probes
	// and raised its failure rate.
	forks := traceForkSizes(t, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < weaves; i++ {
				if err := p.Weave(); err != nil {
					t.Errorf("weave: %v", err)
					return
				}
				p.Unweave()
			}
		}()
		for i := 0; i < calls; i++ {
			run()
		}
		wg.Wait()
	})
	const per = int64(n) * (n - 1) / 2
	if got := sum.Load(); got != calls*per {
		t.Fatalf("sum = %d after %d calls, want %d (iterations lost or doubled)", got, calls, calls*per)
	}
	narrow := 0
	for size, n := range forks {
		if size != 2 {
			narrow += n
		}
	}
	if narrow != 0 {
		t.Fatalf("%d woven entries ran narrower than 2 (%d at 2)", narrow, forks[2])
	}
}

// Thread-local state must be fresh on every lease of a reused team: an
// InitFresh accumulator reduced per region entry yields exactly one
// contribution per worker per entry, regardless of team reuse.
func TestHotTeamsThreadLocalFreshPerLease(t *testing.T) {
	defer func(prev bool) { rt.SetHotTeams(prev) }(rt.SetHotTeams(true))

	const threads, entries, iters = 2, 5, 100
	p := weaver.NewProgram("tl")
	var global int64 // master-only access: barrier-protected by @Reduce
	tl := NewThreadLocal("call(* T.acc(..))", "acc").InitFresh(func() any { return new(int64) })
	acc := p.Class("T").ValueProc("acc", func() any { return &global })
	loop := p.Class("T").ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			*(acc().(*int64))++
		}
	})
	reduced := p.Class("T").Proc("merge", func() {})
	run := p.Class("T").Proc("run", func() {
		loop(0, iters, 1)
		reduced()
	})
	p.Use(ParallelRegion("call(* T.run(..))").Threads(threads))
	p.Use(ForShare("call(* T.loop(..))"))
	p.Use(tl)
	p.Use(ReducePoint("call(* T.merge(..))", tl, func(local any) {
		global += *(local.(*int64))
	}))
	p.MustWeave()

	for e := 0; e < entries; e++ {
		run()
	}
	if global != entries*iters {
		t.Fatalf("reduced total = %d, want %d (stale thread-locals leaked across leases)", global, entries*iters)
	}
}

// A @For on a hot team resolves its bound schedule on every entry,
// covering every iteration exactly once under each kind — including
// Adaptive's shape rule on the first entry and its feedback on the next.
func TestForRuntimeScheduleResolvesPerEntry(t *testing.T) {
	const n, threads, entries = 300, 3, 3
	for _, k := range []sched.Kind{sched.StaticBlock, sched.StaticCyclic, sched.Dynamic, sched.Guided, sched.Adaptive} {
		p := weaver.NewProgram("rs")
		hits := make([]atomic.Int32, n)
		loop := p.Class("R").ForProc("loop", func(lo, hi, step int) {
			for i := lo; i < hi; i += step {
				hits[i].Add(1)
			}
		})
		run := p.Class("R").Proc("run", func() { loop(0, n, 1) })
		p.Use(ParallelRegion("call(* R.run(..))").Threads(threads))
		p.Use(ForShare("call(* R.loop(..))").Schedule(k))
		p.MustWeave()
		for e := 0; e < entries; e++ {
			for i := range hits {
				hits[i].Store(0)
			}
			run()
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("schedule %v entry %d: iteration %d ran %d times", k, e, i, hits[i].Load())
				}
			}
		}
	}
}
