package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aomplib/internal/obs"
	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// tlCopy is one worker's thread-local copy in the tests below.
type tlCopy struct {
	owner, val int
}

// TestReduceMatrix runs 100 @Reduce encounters per lease at every width,
// on pooled and on cold teams, and pins the reduction contract: every copy
// is merged exactly once and in worker-id order, the merged value is
// visible to every worker as soon as the construct returns, the next
// accessor call re-initialises, no encounter slot stays pending, and one
// reduction is one barrier episode (rt.barrier_waits per encounter == team
// size). Widths are pinned, and each lease checks the width it ran at.
func TestReduceMatrix(t *testing.T) {
	pinWidth(t)
	defer obs.EnableMetrics(obs.EnableMetrics(true))
	for _, hot := range []bool{true, false} {
		for _, width := range []int{1, 2, 3, 7} {
			t.Run(fmt.Sprintf("hot=%v/w=%d", hot, width), func(t *testing.T) {
				defer rt.SetHotTeams(rt.SetHotTeams(hot))
				reduceLease(t, width)
			})
		}
	}
}

func reduceLease(t *testing.T, width int) {
	const encounters = 100
	p := weaver.NewProgram("reduce-matrix")
	cls := p.Class("R")
	var (
		total  int   // the global field; plain — the construct is its only ordering
		merged []int // owners in merge order, all encounters
		inits  atomic.Int32
		team   *rt.Team
		global tlCopy
	)
	acc := cls.ValueProc("acc", func() any { return &global })
	collect := cls.Proc("collect", func() {})
	run := cls.Proc("run", func() {
		w := rt.Current()
		if w.ID == 0 {
			team = w.Team
		}
		for k := 1; k <= encounters; k++ {
			c := acc().(*tlCopy)
			if c.val != 0 || c.owner != -1 {
				t.Errorf("encounter %d worker %d: accessor returned a used copy %+v, want a fresh one", k, w.ID, *c)
				return
			}
			c.owner, c.val = w.ID, k
			if again := acc().(*tlCopy); again != c {
				t.Errorf("encounter %d worker %d: second access returned another copy", k, w.ID)
			}
			collect()
			if want := width * k * (k + 1) / 2; total != want {
				t.Errorf("encounter %d worker %d: total %d right after @Reduce, want %d", k, w.ID, total, want)
				return
			}
		}
	})
	tl := NewThreadLocal("call(* R.acc(..))", "acc").InitFresh(func() any {
		inits.Add(1)
		return &tlCopy{owner: -1}
	})
	p.Use(ParallelRegion("call(* R.run(..))").Threads(width), tl)
	p.Use(ReducePoint("call(* R.collect(..))", tl, func(local any) {
		c := local.(*tlCopy)
		total += c.val
		merged = append(merged, c.owner)
	}))
	p.MustWeave()

	before := obs.ReadMetrics().BarrierWaits
	run()
	if team.Size != width {
		t.Fatalf("the lease ran %d workers, want %d", team.Size, width)
	}
	if got := obs.ReadMetrics().BarrierWaits - before; got != uint64(encounters*width) {
		t.Errorf("%d barrier waits over %d reductions by %d workers, want one per worker per reduction", got, encounters, width)
	}
	if len(merged) != encounters*width {
		t.Fatalf("%d copies merged, want %d", len(merged), encounters*width)
	}
	for i, owner := range merged {
		if owner != i%width {
			t.Fatalf("merge %d (encounter %d) took worker %d's copy, want worker-id order", i, i/width+1, owner)
		}
	}
	if got := int(inits.Load()); got != encounters*width {
		t.Errorf("%d initialisations, want one per worker per encounter (%d)", got, encounters*width)
	}
	if n := team.PendingInstances(); n != 0 {
		t.Errorf("%d encounter slots pending after the region", n)
	}
}

// TestReduceMergePanicReleasesTeam: merge runs inside the barrier, on the
// last worker to arrive, while the team waits. If it panics the waiters
// must be failed, not stranded: the region joins and re-raises.
func TestReduceMergePanicReleasesTeam(t *testing.T) {
	for _, width := range []int{2, 3, 7} {
		p := weaver.NewProgram("reduce-panic")
		cls := p.Class("R")
		acc := cls.ValueProc("acc", func() any { return nil })
		collect := cls.Proc("collect", func() {})
		run := cls.Proc("run", func() {
			acc()
			collect()
		})
		tl := NewThreadLocal("call(* R.acc(..))", "acc").InitFresh(func() any { return new(int) })
		boom := true
		p.Use(ParallelRegion("call(* R.run(..))").Threads(width), tl)
		p.Use(ReducePoint("call(* R.collect(..))", tl, func(any) {
			if boom {
				panic("merge")
			}
		}))
		p.MustWeave()
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			run()
		}()
		select {
		case got := <-done:
			if got != "merge" {
				t.Errorf("w=%d: region re-raised %v, want merge", width, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("w=%d: region hung: workers waited in a barrier whose merge had panicked", width)
		}
		boom = false
		run() // the failed team retired; a fresh one reduces normally
	}
}

// accessorProgram is a region of `width` workers around body, with a
// thread-local accessor R.acc whose copies are tlCopy{owner: -1} and whose
// field outside regions is global.
func accessorProgram(width int, global *tlCopy, inits *atomic.Int32, body func(acc func() any)) (*weaver.Program, *ThreadLocalAspect, func(), func() any) {
	p := weaver.NewProgram("accessor")
	cls := p.Class("R")
	acc := cls.ValueProc("acc", func() any { return global })
	run := cls.Proc("run", func() { body(acc) })
	tl := NewThreadLocal("call(* R.acc(..))", "acc").InitFresh(func() any {
		inits.Add(1)
		return &tlCopy{owner: -1}
	})
	p.Use(ParallelRegion("call(* R.run(..))").Threads(width), tl)
	p.MustWeave()
	return p, tl, run, acc
}

// passThrough is a second advice for the accessor pc selects: it forces the reified
// chain (the thread-local stage is no longer the sole live one) and changes
// nothing else.
func passThrough(pc string) weaver.Aspect {
	return Around("Pass", pc, PrecCritical, false,
		func(c *weaver.Call, proceed func(*weaver.Call)) { proceed(c) })
}

// TestAccessorPathsAgree: the Call-free entry (thread-local advice alone on
// the accessor) and the reified stage (a second advice stacked) hand each
// worker the same copy; outside a region both return the field's own value;
// a goroutine spawned inside the region sees its spawner's copy.
func TestAccessorPathsAgree(t *testing.T) {
	const width = 3
	var (
		global  tlCopy
		inits   atomic.Int32
		phase   atomic.Int32 // 0: sole advice, 1: stacked
		seen    [2][width]*tlCopy
		child   [width]*tlCopy
		inherit atomic.Bool
	)
	var p *weaver.Program
	p, _, run, acc := accessorProgram(width, &global, &inits, func(acc func() any) {
		w := rt.Current()
		seen[phase.Load()][w.ID] = acc().(*tlCopy)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rt.Current() != nil { // the default gls backend inherits at spawn
				inherit.Store(true)
				child[w.ID] = acc().(*tlCopy)
			}
		}()
		wg.Wait()
		w.Team.Barrier().WaitWorker(w)
		if w.ID == 0 && phase.Load() == 0 {
			p.Use(passThrough("call(* R.acc(..))"))
			phase.Store(1)
		}
		w.Team.Barrier().WaitWorker(w)
		seen[phase.Load()][w.ID] = acc().(*tlCopy)
	})
	if got := acc(); got != any(&global) {
		t.Fatalf("outside a region the accessor returned %v, want the field's own value", got)
	}
	run()
	for id := 0; id < width; id++ {
		sole, stacked := seen[0][id], seen[1][id]
		if sole == nil || sole == &global || sole != stacked {
			t.Errorf("worker %d: sole-advice path gave %p, stacked path %p (global %p)", id, sole, stacked, &global)
		}
		for other := 0; other < id; other++ {
			if seen[0][other] == sole {
				t.Errorf("workers %d and %d share a copy", other, id)
			}
		}
		if inherit.Load() && child[id] != sole {
			t.Errorf("worker %d: spawned goroutine saw %p, spawner %p", id, child[id], sole)
		}
	}
	if got := inits.Load(); got != width {
		t.Errorf("%d initialisations across a path flip, want %d", got, width)
	}
	if got := acc(); got != any(&global) {
		t.Fatalf("stacked, outside a region: accessor returned %v, want the field's own value", got)
	}
	if !inherit.Load() {
		t.Log("gls backend without spawn-time inheritance: spawned-goroutine check skipped")
	}
}

// TestAccessorGateAndReport: disabling the thread-local advice is effective
// on the next call after SetAdviceEnabled returns (its chain swap leaves the
// body direct), re-enabling likewise; the weave report lists the advice
// either way.
func TestAccessorGateAndReport(t *testing.T) {
	var (
		global tlCopy
		inits  atomic.Int32
		p      *weaver.Program
		tl     *ThreadLocalAspect
	)
	p, tl, run, _ := accessorProgram(1, &global, &inits, func(acc func() any) {
		local := acc().(*tlCopy)
		if local == &global {
			t.Error("enabled: accessor returned the global field inside a region")
		}
		if err := p.SetAdviceEnabled(tl.AspectName(), false); err != nil {
			t.Error(err)
		}
		if got := acc().(*tlCopy); got != &global {
			t.Errorf("disabled: next call returned %p, want the global field %p", got, &global)
		}
		if err := p.SetAdviceEnabled(tl.AspectName(), true); err != nil {
			t.Error(err)
		}
		if got := acc().(*tlCopy); got != local {
			t.Errorf("re-enabled: accessor returned %p, want the worker's copy %p back", got, local)
		}
	})
	run()
	if got := inits.Load(); got != 1 {
		t.Errorf("%d initialisations across a gate flip, want 1", got)
	}
	for _, wm := range p.Report() {
		if wm.FQN != "R.acc" {
			continue
		}
		if len(wm.Details) != 1 || wm.Details[0].Aspect != tl.AspectName() || !wm.Details[0].Enabled {
			t.Errorf("report for R.acc = %+v, want the enabled thread-local advice", wm.Details)
		}
		return
	}
	t.Error("R.acc missing from the weave report")
}

// TestAccessorPathFlipsUnderLoad: a second advice deployed and removed while
// the team calls the accessor flips every call between the Call-free entry
// and the reified stage; no worker may ever see another copy, a lost
// initialisation or a doubled one. Run under -race.
func TestAccessorPathFlipsUnderLoad(t *testing.T) {
	const width, calls = 3, 20_000
	var (
		global tlCopy
		inits  atomic.Int32
		live   atomic.Int32
	)
	p, _, run, _ := accessorProgram(width, &global, &inits, func(acc func() any) {
		defer live.Add(-1)
		mine := acc().(*tlCopy)
		for i := 0; i < calls; i++ {
			if got := acc().(*tlCopy); got != mine {
				t.Errorf("call %d: accessor returned %p, worker's copy is %p", i, got, mine)
				return
			}
			mine.val++ // worker-private: a shared copy is a race
		}
	})
	live.Store(width)
	flipped := make(chan int)
	go func() {
		n := 0
		for ; live.Load() > 0; n++ {
			p.Use(passThrough("call(* R.acc(..))"))
			p.RemoveAspect("Pass")
		}
		flipped <- n
	}()
	run()
	if n := <-flipped; n == 0 {
		t.Log("the region finished before the first flip")
	}
	if got := inits.Load(); got != width {
		t.Errorf("%d initialisations under path flips, want %d", got, width)
	}
}
