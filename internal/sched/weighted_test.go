package sched

import (
	"sync"
	"testing"
	"testing/quick"
)

// newSteal returns a steal dispenser armed by Reset, the way rt arms the
// one an encounter slot keeps.
func newSteal(sp Space, chunk, nthreads int) *StealDispenser {
	d := new(StealDispenser)
	d.Reset(sp, chunk, nthreads)
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

// skewCases are the starts the steal tests drain from: the balanced carve,
// then skewed by drawing pre[i] chunks from worker i's own range before
// anyone steals (a worker that ran ahead of its siblings).
var skewCases = []struct {
	name     string
	nthreads int
	pre      []int
}{
	{"one-worker", 1, []int{0}},
	{"balanced-2", 2, []int{0, 0}},
	{"balanced-3", 3, []int{0, 0, 0}},
	{"ahead-middle", 3, []int{0, 10, 0}},
	{"loaded-first-sibling", 4, []int{0, 0, 20, 5}},
	{"tie-after-drain", 4, []int{0, 24, 0, 0}},
	{"all-ahead", 4, []int{3, 7, 11, 2}},
}

var carveCounts = []int{0, 1, 2, 10, 80, 800, 1001}

// predrain draws pre[i] chunks from worker i's own range in worker order,
// counting each dispensed index in hits. A worker whose range runs dry stops
// early rather than steal, so the skew is built from local claims only.
func predrain(d *StealDispenser, pre []int, hits []int32) {
	for id, k := range pre {
		for ; k > 0; k-- {
			lo, hi := unpackRange(d.slots[id].bounds.Load())
			if lo >= hi {
				break
			}
			from, to, _, _, _ := d.Next(id)
			for i := from; i < to; i++ {
				hits[i]++
			}
		}
	}
}

// TestStealCarveIsBlockPartition pins the carve: Reset lays out exactly the
// StaticBlock partition of [0, n), one contiguous range per worker in
// worker order, at every width and trip count.
func TestStealCarveIsBlockPartition(t *testing.T) {
	for _, width := range []int{1, 2, 3, 4, 7} {
		for _, n := range carveCounts {
			sp := Space{0, n, 1}
			rs := ranges(newSteal(sp, 1, width))
			lo := 0
			for id, r := range rs {
				hi := lo + Block(sp, width, id).Count()
				if r != [2]int{lo, hi} {
					t.Fatalf("width %d n=%d: ranges %v, want the StaticBlock partition", width, n, rs)
				}
				lo = hi
			}
		}
	}
}

// TestStealDispenserWeightedProportionalCarve pins the carve as a worker
// sees it through Next: draining only its own range (victim -1 means the
// local slot served), it gets its static block before the first steal.
func TestStealDispenserWeightedProportionalCarve(t *testing.T) {
	d := newSteal(Space{0, 80, 1}, 1, 2)
	own := 0
	for {
		from, to, victim, _, ok := d.Next(1)
		if !ok || victim >= 0 {
			break
		}
		own += int(to - from)
	}
	if own != 40 {
		t.Fatalf("worker 1 owned %d of 80 iterations before stealing, want its block of 40", own)
	}
}

// TestStealDispenserWeightedStealsMostLoaded pins the victim policy on
// every start: a dry worker's steal scans every sibling and halves the one
// holding the largest remainder (the lowest id among equals), not the
// first non-empty slot.
func TestStealDispenserWeightedStealsMostLoaded(t *testing.T) {
	for _, c := range skewCases {
		if c.nthreads < 2 {
			continue
		}
		d := newSteal(Space{0, 100, 1}, 1, c.nthreads)
		predrain(d, c.pre, make([]int32, 100))
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

// drainConcurrently draws pre[i] chunks from each worker i's own range
// (nil: none), then runs one goroutine per worker against d, and reports
// whether every index of [0, n) was dispensed exactly once.
func drainConcurrently(d *StealDispenser, n, workers int, pre []int) bool {
	hits := make([]int32, n)
	predrain(d, pre, hits)
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

// Property: stealing preserves the exactly-once guarantee under concurrent
// draining — from every start at several counts and chunks, and from
// arbitrary skewed starts, chunks and team sizes. A skewed start changes
// who steals what, never coverage.
func TestStealDispenserWeightedConcurrentExactlyOnce(t *testing.T) {
	for _, c := range skewCases {
		for _, n := range carveCounts {
			for _, chunk := range []int{0, 1, 3, 8} {
				if !drainConcurrently(newSteal(Space{0, n, 1}, chunk, c.nthreads), n, c.nthreads, c.pre) {
					t.Fatalf("%s n=%d chunk=%d: an iteration was not dispensed exactly once", c.name, n, chunk)
				}
			}
		}
	}
	f := func(count uint16, chunk uint8, nth uint8, seeds [8]uint16) bool {
		n := int(count % 2000)
		workers := int(nth%8) + 1
		pre := make([]int, workers)
		for i := range pre {
			pre[i] = int(seeds[i] % 64)
		}
		return drainConcurrently(newSteal(Space{0, n, 1}, int(chunk%9), workers), n, workers, pre)
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
	d := newSteal(Space{0, 64, 1}, 4, 4)
	if !drainConcurrently(d, 64, 4, nil) {
		t.Fatal("first loop not covered exactly once")
	}
	if a := testing.AllocsPerRun(100, func() { d.Reset(Space{0, 50, 1}, 2, 4) }); a != 0 {
		t.Fatalf("re-arming in place allocated %.1f times", a)
	}
	if !drainConcurrently(d, 50, 4, []int{5, 0, 2, 0}) {
		t.Fatal("re-armed loop not covered exactly once")
	}
	for _, width := range []int{2, 8, 3} {
		d.Reset(Space{0, 37, 1}, 1, width)
		if len(d.slots) != width {
			t.Fatalf("width %d: %d slots", width, len(d.slots))
		}
		if !drainConcurrently(d, 37, width, nil) {
			t.Fatalf("width %d: re-armed loop not covered exactly once", width)
		}
	}
}
