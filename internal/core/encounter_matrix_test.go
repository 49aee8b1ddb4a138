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

// loopShape is the loop every encounter of exactlyOnce runs: n iterations
// of the given step, dispensed in chunks of chunk.
type loopShape struct{ n, chunk, step int }

// bounds returns encounter k's loop bounds. Encounters occupy consecutive,
// disjoint value ranges, so a loop value names its encounter.
func (s loopShape) bounds(k int) (lo, hi int) {
	if s.step > 0 {
		return k * s.n * s.step, (k + 1) * s.n * s.step
	}
	return (k + 1) * s.n * -s.step, k * s.n * -s.step
}

// ordinal maps a loop value to k*n + j: the j-th iteration, in sequential
// order, of encounter k.
func (s loopShape) ordinal(v int) int {
	if s.step > 0 {
		return v / s.step
	}
	q := v / -s.step // in [k*n+1, (k+1)*n], counting down
	k := (q - 1) / s.n
	return k*s.n + (k+1)*s.n - q
}

// exactlyOnce weaves a region of `width` workers that meets one @For
// construct `encounters` times — more than the encounter ring holds, with
// no barrier of its own between them, so fast workers run ahead and lap —
// and checks every iteration of every encounter ran exactly once, that
// @Ordered sections (when woven) ran in iteration order within each
// encounter, and that every region left no encounter slot pending. outer >
// 1 runs it nested: each worker of an outer region enters the region.
func exactlyOnce(t *testing.T, kind sched.Kind, shape loopShape, width, outer int, ordered bool) {
	const encounters = 9
	n := shape.n
	p := weaver.NewProgram("matrix")
	cls := p.Class("M")
	hits := make([]atomic.Int32, n*encounters)
	var mu sync.Mutex
	var order []int
	var teams []*rt.Team
	emit := cls.KeyedProc("emit", func(i int) {
		mu.Lock()
		order = append(order, shape.ordinal(i))
		mu.Unlock()
	})
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		for i := lo; (step > 0 && i < hi) || (step < 0 && i > hi); i += step {
			hits[shape.ordinal(i)].Add(1)
			emit(i)
		}
	})
	run := cls.Proc("run", func() {
		if w := rt.Current(); w != nil && w.ID == 0 {
			mu.Lock()
			teams = append(teams, w.Team)
			mu.Unlock()
		}
		for k := 0; k < encounters; k++ {
			lo, hi := shape.bounds(k)
			loop(lo, hi, shape.step)
		}
	})
	nest := cls.Proc("nest", func() { run() })
	p.Use(ParallelRegion("call(* M.run(..))").Threads(width))
	p.Use(ParallelRegion("call(* M.nest(..))").Threads(outer))
	fa := ForShare("call(* M.loop(..))").Schedule(kind).Chunk(shape.chunk)
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
		// Strict: also when one body call spans several chunks. A worker
		// running [0,64) in one call and its team-mate running [64,128)
		// interleave exactly as four 16-iteration calls each did: the
		// second waits at 64 until the first has passed 63 either way.
		next := make([]int, encounters) // per encounter: the ordinal due next
		for _, v := range order {
			if k := v / n; v != k*n+next[k] {
				t.Fatalf("encounter %d emitted iteration %d when %d was due — ordered violated", k, v%n, next[k])
			}
			next[v/n]++
		}
	}
	if len(teams) != entries {
		t.Fatalf("saw %d region entries, want %d", len(teams), entries)
	}
	for _, team := range teams {
		if team.Size != width {
			t.Fatalf("a region entry ran %d workers, want %d", team.Size, width)
		}
		if pending := team.PendingInstances(); pending != 0 {
			t.Fatalf("%d encounter slots pending after the region", pending)
		}
	}
}

// TestExactlyOnceMatrix is the exactly-once differential over the whole
// schedule surface: every kind × widths {1,2,3,7} × hot and cold teams ×
// with and without @Ordered inside, plus nested regions. At 37 iterations
// of chunk 3 almost no dynamic claim spans two chunks, so the two
// cursor-backed kinds also run 257 iterations at chunk {1,16} × step
// {1,3,-2}, where most body calls span four chunks (widths 2 and 3: at
// chunk 16 a wider team is in the one-chunk tail from the start), and at
// width 1, where the loop is one static block. Widths are pinned;
// exactlyOnce checks every entry ran at its width.
func TestExactlyOnceMatrix(t *testing.T) {
	pinWidth(t)
	small := loopShape{n: 37, chunk: 3, step: 1}
	// Every schedule by name, the former names included: a flag or config
	// spelled the old way must still run every iteration once.
	names := []string{"auto", "weightedSteal"}
	for _, k := range sched.Kinds() {
		names = append(names, k.String())
	}
	for _, hot := range []bool{true, false} {
		prev := rt.SetHotTeams(hot)
		for _, name := range names {
			kind, err := sched.ParseKind(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{1, 2, 3, 7} {
				for _, ordered := range []bool{false, true} {
					sub := fmt.Sprintf("hot=%v/%s/w=%d/ordered=%v", hot, name, width, ordered)
					t.Run(sub, func(t *testing.T) {
						// Twice: the second run meets the reused team.
						exactlyOnce(t, kind, small, width, 1, ordered)
						exactlyOnce(t, kind, small, width, 1, ordered)
					})
				}
			}
			t.Run(fmt.Sprintf("hot=%v/%s/nested", hot, name), func(t *testing.T) {
				exactlyOnce(t, kind, small, 3, 2, false)
			})
		}
		for _, kind := range []sched.Kind{sched.Dynamic, sched.Guided} {
			for _, chunk := range []int{1, 16} {
				for _, step := range []int{1, 3, -2} {
					for _, ordered := range []bool{false, true} {
						wide := loopShape{n: 257, chunk: chunk, step: step}
						name := fmt.Sprintf("hot=%v/%v/n=257/chunk=%d/step=%d/ordered=%v", hot, kind, chunk, step, ordered)
						t.Run(name, func(t *testing.T) {
							exactlyOnce(t, kind, wide, 1, 1, ordered)
							exactlyOnce(t, kind, wide, 2, 1, ordered)
							exactlyOnce(t, kind, wide, 3, 1, ordered)
						})
					}
				}
			}
		}
		rt.SetHotTeams(prev)
	}
}
