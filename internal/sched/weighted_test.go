package sched

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// newSteal returns a steal dispenser armed by Reset, the way rt arms the
// one an encounter slot keeps.
func newSteal(sp Space, chunk, nthreads int, weights []float64) *StealDispenser {
	d := new(StealDispenser)
	d.Reset(sp, chunk, nthreads, weights)
	return d
}

// ranges reads the per-worker ranges a dispenser holds, as iteration-index
// [lo, hi) pairs.
func ranges(d *StealDispenser) [][2]int {
	out := make([][2]int, len(d.slots))
	for i := range d.slots {
		lo, hi := unpackRange(d.slots[i].bounds.Load())
		out[i] = [2]int{int(lo), int(hi)}
	}
	return out
}

// carveCases is the weight table the speed carve is pinned on. Usable
// weights — uniform or skewed — carve within one iteration of proportional;
// nil weights and every unusable shape carve the balanced StaticBlock
// partition. A case's nthreads is the team the weights are offered to.
var carveCases = []struct {
	name     string
	weights  []float64
	nthreads int
	usable   bool
}{
	{"nil", nil, 3, false},
	{"uniform", []float64{1, 1, 1}, 3, true},
	{"skewed", []float64{4, 1, 2, 1}, 4, true},
	{"loaded-last", []float64{1, 2, 7}, 3, true},
	{"tiny", []float64{1e-9, 3e-9}, 2, true},
	{"one-worker", []float64{5}, 1, true},
	{"wrong-length", []float64{1, 2}, 3, false},
	{"negative", []float64{1, -1, 1}, 3, false},
	{"zero", []float64{1, 0, 1}, 3, false},
	{"NaN", []float64{1, math.NaN(), 1}, 3, false},
	{"+Inf", []float64{1, math.Inf(1), 1}, 3, false},
	{"overflow", []float64{1e301, 1e301, 1e301}, 3, false},
}

var carveCounts = []int{0, 1, 2, 10, 80, 800, 1001}

// TestWeightedCutsProportional pins the carve math on usable weights: the
// ranges are a contiguous exact partition of [0, n) in worker order, and
// each is within one iteration of its ideal n·w_i/Σw (cut i is the rounded
// cumulative share).
func TestWeightedCutsProportional(t *testing.T) {
	for _, c := range carveCases {
		if !c.usable {
			continue
		}
		var sum float64
		for _, w := range c.weights {
			sum += w
		}
		for _, n := range carveCounts {
			rs := ranges(newSteal(Space{0, n, 1}, 1, c.nthreads, c.weights))
			next := 0
			for i, r := range rs {
				if r[0] != next || r[1] < r[0] {
					t.Fatalf("%s n=%d: ranges %v are not a contiguous partition", c.name, n, rs)
				}
				next = r[1]
				if ideal := float64(n) * c.weights[i] / sum; math.Abs(float64(r[1]-r[0])-ideal) > 1 {
					t.Errorf("%s n=%d: worker %d holds %d iterations, ideal %.1f", c.name, n, i, r[1]-r[0], ideal)
				}
			}
			if next != n {
				t.Fatalf("%s n=%d: ranges %v end at %d", c.name, n, rs, next)
			}
		}
	}
}

// TestWeightedCutsFallsBackBalanced pins the unusable-weights contract:
// nil, mis-sized, non-finite, non-positive, or overflowing weights must all
// carve exactly the StaticBlock partition — never a panic, never a skewed
// carve from garbage.
func TestWeightedCutsFallsBackBalanced(t *testing.T) {
	for _, c := range carveCases {
		if c.usable {
			continue
		}
		for _, n := range carveCounts {
			sp := Space{0, n, 1}
			rs := ranges(newSteal(sp, 1, c.nthreads, c.weights))
			lo := 0
			for id, r := range rs {
				hi := lo + Block(sp, c.nthreads, id).Count()
				if r != [2]int{lo, hi} {
					t.Fatalf("%s n=%d: ranges %v, want the StaticBlock partition", c.name, n, rs)
				}
				lo = hi
			}
		}
	}
}

// TestStealDispenserWeightedProportionalCarve pins the carve as a worker
// sees it through Next: draining only its own range (victim -1 means the
// local slot served), it gets its proportional share before the first
// steal.
func TestStealDispenserWeightedProportionalCarve(t *testing.T) {
	// weights 3:1 over 80 iterations → worker 1's own range ≈ 20.
	d := newSteal(Space{0, 80, 1}, 1, 2, []float64{3, 1})
	own := 0
	for {
		from, to, victim, _, ok := d.Next(1)
		if !ok || victim >= 0 {
			break
		}
		own += int(to - from)
	}
	if own < 19 || own > 21 {
		t.Fatalf("worker 1 owned %d of 80 iterations, want ≈20 under weights 3:1", own)
	}
}

// TestStealDispenserWeightedStealsMostLoaded pins the victim policy on
// every carve: a dry worker's steal scans every sibling and halves the one
// holding the largest remainder (the lowest id among equals), not the
// first non-empty slot.
func TestStealDispenserWeightedStealsMostLoaded(t *testing.T) {
	for _, c := range carveCases {
		if c.nthreads < 2 {
			continue
		}
		d := newSteal(Space{0, 100, 1}, 1, c.nthreads, c.weights)
		want, most := -1, 0
		for i, r := range ranges(d)[1:] {
			if r[1]-r[0] > most {
				want, most = i+1, r[1]-r[0]
			}
		}
		for {
			_, _, victim, probes, ok := d.Next(0)
			if !ok {
				t.Fatalf("%s: space drained before any steal was observed", c.name)
			}
			if victim < 0 {
				continue
			}
			if victim != want {
				t.Fatalf("%s: first steal took from slot %d, want the most loaded slot %d", c.name, victim, want)
			}
			if probes != c.nthreads-1 {
				t.Fatalf("%s: steal probed %d slots, want a full scan of %d siblings", c.name, probes, c.nthreads-1)
			}
			break
		}
	}
}

// drainConcurrently runs one goroutine per worker against d and reports
// whether every index of [0, n) was dispensed exactly once.
func drainConcurrently(d *StealDispenser, n, workers int) bool {
	hits := make([]int32, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				from, to, _, _, ok := d.Next(id)
				if !ok {
					return
				}
				for i := from; i < to; i++ {
					hits[i]++ // each index owned by one goroutine
				}
			}
		}(w)
	}
	wg.Wait()
	for _, h := range hits {
		if h != 1 {
			return false
		}
	}
	return remaining(d) == 0
}

// remaining reports how many iterations are still claimable across all
// ranges: a snapshot, not an atomic observation.
func remaining(d *StealDispenser) int {
	r := 0
	for _, rg := range ranges(d) {
		r += max(rg[1]-rg[0], 0)
	}
	return r
}

// Property: the carve preserves the exactly-once guarantee under concurrent
// draining — for every weight case at several counts and chunks, and for
// arbitrary weights, chunks and team sizes. A skewed carve changes who
// starts with what, never coverage.
func TestStealDispenserWeightedConcurrentExactlyOnce(t *testing.T) {
	for _, c := range carveCases {
		for _, n := range carveCounts {
			for _, chunk := range []int{0, 1, 3, 8} {
				if !drainConcurrently(newSteal(Space{0, n, 1}, chunk, c.nthreads, c.weights), n, c.nthreads) {
					t.Fatalf("%s n=%d chunk=%d: an iteration was not dispensed exactly once", c.name, n, chunk)
				}
			}
		}
	}
	f := func(count uint16, chunk uint8, nth uint8, seeds [8]uint16) bool {
		n := int(count % 2000)
		workers := int(nth%8) + 1
		ws := make([]float64, workers)
		for i := range ws {
			ws[i] = float64(seeds[i]%16) + 0.25
		}
		return drainConcurrently(newSteal(Space{0, n, 1}, int(chunk%9), workers, ws), n, workers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStealDispenserResetReusesSlots pins the in-place lifecycle the
// encounter slot relies on: re-arming a drained dispenser allocates nothing
// while the team fits the slot array, a narrower or wider team re-carves
// correctly, and every re-armed loop still covers each iteration once.
func TestStealDispenserResetReusesSlots(t *testing.T) {
	d := newSteal(Space{0, 64, 1}, 4, 4, nil)
	if !drainConcurrently(d, 64, 4) {
		t.Fatal("first loop not covered exactly once")
	}
	ws := []float64{1, 2, 3, 4}
	if a := testing.AllocsPerRun(100, func() { d.Reset(Space{0, 50, 1}, 2, 4, ws) }); a != 0 {
		t.Fatalf("re-arming in place allocated %.1f times", a)
	}
	if !drainConcurrently(d, 50, 4) {
		t.Fatal("re-armed loop not covered exactly once")
	}
	for _, width := range []int{2, 8, 3} {
		d.Reset(Space{0, 37, 1}, 1, width, nil)
		if len(d.slots) != width {
			t.Fatalf("width %d: %d slots", width, len(d.slots))
		}
		if !drainConcurrently(d, 37, width) {
			t.Fatalf("width %d: re-armed loop not covered exactly once", width)
		}
	}
}
