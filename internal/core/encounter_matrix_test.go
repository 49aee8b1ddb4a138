package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// exactlyOnce weaves a region of `width` workers that meets one @For
// construct `encounters` times — more than the encounter ring holds, with
// no barrier of its own between them, so fast workers run ahead and lap —
// and checks every iteration of every encounter ran exactly once, that
// @Ordered sections (when woven) ran in iteration order within each
// encounter, and that every region left no encounter slot pending. outer >
// 1 runs it nested: each worker of an outer region enters the region.
func exactlyOnce(t *testing.T, kind sched.Kind, width, outer int, ordered bool) {
	const n, encounters = 37, 9
	p := weaver.NewProgram("matrix")
	cls := p.Class("M")
	hits := make([]atomic.Int32, n*encounters)
	var mu sync.Mutex
	var order []int
	var teams []*rt.Team
	emit := cls.KeyedProc("emit", func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			hits[i].Add(1)
			emit(i)
		}
	})
	// Encounter k iterates [k*n, (k+1)*n): a value names its encounter.
	run := cls.Proc("run", func() {
		if w := rt.Current(); w != nil && w.ID == 0 {
			mu.Lock()
			teams = append(teams, w.Team)
			mu.Unlock()
		}
		for k := 0; k < encounters; k++ {
			loop(k*n, (k+1)*n, 1)
		}
	})
	nest := cls.Proc("nest", func() { run() })
	p.Use(ParallelRegion("call(* M.run(..))").Threads(width))
	p.Use(ParallelRegion("call(* M.nest(..))").Threads(outer))
	fa := ForShare("call(* M.loop(..))").Schedule(kind).Chunk(3)
	if kind == sched.Custom {
		// Blocks dealt in reverse worker order.
		fa.CustomSchedule(func(id, nthreads int, sp sched.Space) []sched.Space {
			return []sched.Space{sched.Block(sp, nthreads, nthreads-1-id)}
		})
	}
	p.Use(fa)
	if ordered {
		p.Use(OrderedSection("call(* M.emit(..))"))
	}
	p.MustWeave()

	entries := 1
	if outer > 1 {
		entries = outer
		nest()
	} else {
		run()
	}
	for i := range hits {
		if h := int(hits[i].Load()); h != entries {
			t.Fatalf("encounter %d iteration %d ran %d times, want %d", i/n, i%n, h, entries)
		}
	}
	if ordered && outer == 1 {
		next := make([]int, encounters) // per encounter: the value due next
		for _, v := range order {
			if k := v / n; v != k*n+next[k] {
				t.Fatalf("encounter %d emitted %d when %d was due — ordered violated", k, v%n, next[k])
			}
			next[v/n]++
		}
	}
	if len(teams) != entries {
		t.Fatalf("saw %d region entries, want %d", len(teams), entries)
	}
	for _, team := range teams {
		if pending := team.PendingInstances(); pending != 0 {
			t.Fatalf("%d encounter slots pending after the region", pending)
		}
	}
}

// TestExactlyOnceMatrix is the exactly-once differential over the whole
// schedule surface: every kind × widths {1,2,3,7} × hot and cold teams ×
// with and without @Ordered inside, plus nested regions.
func TestExactlyOnceMatrix(t *testing.T) {
	for _, hot := range []bool{true, false} {
		prev := rt.SetHotTeams(hot)
		for _, kind := range sched.Kinds() {
			for _, width := range []int{1, 2, 3, 7} {
				for _, ordered := range []bool{false, true} {
					name := fmt.Sprintf("hot=%v/%v/w=%d/ordered=%v", hot, kind, width, ordered)
					t.Run(name, func(t *testing.T) {
						// Twice: the second run meets the reused team.
						exactlyOnce(t, kind, width, 1, ordered)
						exactlyOnce(t, kind, width, 1, ordered)
					})
				}
			}
			t.Run(fmt.Sprintf("hot=%v/%v/nested", hot, kind), func(t *testing.T) {
				exactlyOnce(t, kind, 3, 2, false)
			})
		}
		rt.SetHotTeams(prev)
	}
}
