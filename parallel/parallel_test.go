package parallel_test

import (
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"aomplib/internal/sched"
	"aomplib/parallel"
)

// widths deliberately includes 1 (serial path) and values larger than the
// small input sizes below (width > len must clamp, not break).
var widths = []int{1, 2, 3, 4, 8, 17}

var sizes = []int{0, 1, 2, 3, 7, 16, 100, 1000, 4096}

var schedules = []parallel.Schedule{
	parallel.Static, parallel.Cyclic, parallel.Dynamic,
	parallel.Guided, parallel.Steal, parallel.Adaptive,
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, width := range widths {
		for _, s := range schedules {
			for _, n := range sizes {
				hits := make([]int32, n)
				parallel.For(0, n, func(i int) {
					atomic.AddInt32(&hits[i], 1)
				}, parallel.WithThreads(width), parallel.WithSchedule(s))
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("width=%d sched=%v n=%d: index %d run %d times", width, s, n, i, h)
					}
				}
			}
		}
	}
}

func TestForRangeCoversEveryIndexOnce(t *testing.T) {
	for _, width := range widths {
		for _, s := range schedules {
			for _, n := range sizes {
				hits := make([]int32, n)
				parallel.ForRange(0, n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				}, parallel.WithThreads(width), parallel.WithSchedule(s), parallel.WithGrain(3))
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("width=%d sched=%v n=%d: index %d run %d times", width, s, n, i, h)
					}
				}
			}
		}
	}
}

// TestWithScheduleRejectsUnusableKinds: the case-specific kind (this
// package has no ScheduleFunc option) and a kind that is no schedule used
// to run none of the loop's iterations; WithSchedule must refuse them when
// the option is built, naming the valid schedules.
func TestWithScheduleRejectsUnusableKinds(t *testing.T) {
	for _, s := range []parallel.Schedule{sched.Custom, sched.Kind(42), sched.Kind(-1)} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				_, valid, _ := strings.Cut(msg, "valid schedules are ")
				if !strings.HasPrefix(valid, "[staticBlock") || strings.Contains(valid, "caseSpecific") {
					t.Errorf("WithSchedule(%v) panicked with %q, want the list of valid schedules", s, msg)
				}
			}()
			parallel.For(0, 1000, func(int) {}, parallel.WithThreads(2), parallel.WithSchedule(s))
		}()
	}
}

func TestForNonZeroBase(t *testing.T) {
	var sum atomic.Int64
	parallel.For(10, 20, func(i int) { sum.Add(int64(i)) }, parallel.WithThreads(4))
	if got := sum.Load(); got != 145 {
		t.Fatalf("sum of 10..19 = %d, want 145", got)
	}
	// Empty and inverted ranges are no-ops.
	parallel.For(5, 5, func(i int) { t.Errorf("body ran for empty range: i=%d", i) })
	parallel.For(7, 3, func(i int) { t.Errorf("body ran for inverted range: i=%d", i) })
}

func TestNestedForComposes(t *testing.T) {
	const outer, inner = 8, 64
	hits := make([][]int32, outer)
	for i := range hits {
		hits[i] = make([]int32, inner)
	}
	parallel.For(0, outer, func(i int) {
		// Nested call from inside a region: must decompose onto the
		// current team, not deadlock or over-subscribe.
		parallel.For(0, inner, func(j int) {
			atomic.AddInt32(&hits[i][j], 1)
		}, parallel.WithGrain(8))
	}, parallel.WithThreads(4))
	for i := range hits {
		for j, h := range hits[i] {
			if h != 1 {
				t.Fatalf("nested: (%d,%d) run %d times", i, j, h)
			}
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recover = %v, want boom", r)
		}
	}()
	parallel.For(0, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	}, parallel.WithThreads(4))
	t.Fatal("unreachable")
}

// seqReduce is the reference sequential fold.
func seqReduce(xs []int64) int64 {
	var acc int64
	for _, x := range xs {
		acc += x
	}
	return acc
}

func TestReduceEqualsSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range sizes {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(2001) - 1000)
		}
		want := seqReduce(xs)
		for _, width := range widths {
			for _, s := range schedules {
				got := parallel.Reduce(0, n, int64(0),
					func(lo, hi int, acc int64) int64 {
						for i := lo; i < hi; i++ {
							acc += xs[i]
						}
						return acc
					},
					func(a, b int64) int64 { return a + b },
					parallel.WithThreads(width), parallel.WithSchedule(s), parallel.WithGrain(rng.Intn(64)))
				if got != want {
					t.Fatalf("n=%d width=%d sched=%v: got %d want %d", n, width, s, got, want)
				}
			}
		}
	}
}

func TestReduceDeterministicAcrossWidths(t *testing.T) {
	// Floating-point addition is not associative, so equality across team
	// widths holds only because the combine tree shape is fixed. This is
	// the determinism guarantee, tested directly.
	rng := rand.New(rand.NewSource(11))
	const n = 10_000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * float64(i%97)
	}
	leaf := func(lo, hi int, acc float64) float64 {
		for i := lo; i < hi; i++ {
			acc += xs[i]
		}
		return acc
	}
	add := func(a, b float64) float64 { return a + b }
	ref := parallel.Reduce(0, n, 0.0, leaf, add, parallel.WithThreads(1))
	for _, width := range widths {
		got := parallel.Reduce(0, n, 0.0, leaf, add, parallel.WithThreads(width))
		if got != ref {
			t.Fatalf("width=%d: %v != width-1 result %v (combine tree not width-invariant)", width, got, ref)
		}
	}
}

// TestReduceBitEqualAcrossWidthsAdaptive pins the determinism guarantee
// where it is hardest to keep: the balancing schedules move the iteration
// space between workers (steal ranges migrate to thieves, adaptive state
// re-tunes chunk and kind between encounters), yet the fixed combine
// tree must make float64 results bit-equal across widths and encounters.
// Each configuration runs several encounters under one stable construct
// identity so re-tunes actually happen mid-test.
func TestReduceBitEqualAcrossWidthsAdaptive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, encounters = 10_000, 4
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * float64(i%89)
	}
	leaf := func(lo, hi int, acc float64) float64 {
		for i := lo; i < hi; i++ {
			acc += xs[i]
		}
		return acc
	}
	add := func(a, b float64) float64 { return a + b }
	ref := parallel.Reduce(0, n, 0.0, leaf, add, parallel.WithThreads(1))
	for _, s := range []parallel.Schedule{parallel.Adaptive, parallel.Steal} {
		for _, width := range widths {
			for e := 0; e < encounters; e++ {
				got := parallel.Reduce(0, n, 0.0, leaf, add,
					parallel.WithThreads(width), parallel.WithSchedule(s))
				if got != ref {
					t.Fatalf("sched=%v width=%d encounter=%d: %v != serial %v", s, width, e, got, ref)
				}
			}
		}
	}
}

func TestSortMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	inputs := [][]int{}
	for _, n := range sizes {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(n + 1)
		}
		inputs = append(inputs, xs)
	}
	// Adversarial shapes for the pivot/partition code.
	for _, n := range []int{1000, 4097} {
		sorted := make([]int, n)
		reversed := make([]int, n)
		equal := make([]int, n)
		sawtooth := make([]int, n)
		for i := 0; i < n; i++ {
			sorted[i] = i
			reversed[i] = n - i
			equal[i] = 42
			sawtooth[i] = i % 7
		}
		inputs = append(inputs, sorted, reversed, equal, sawtooth)
	}
	for _, base := range inputs {
		want := append([]int(nil), base...)
		sort.Ints(want)
		for _, width := range widths {
			xs := append([]int(nil), base...)
			parallel.Sort(xs, func(a, b int) bool { return a < b },
				parallel.WithThreads(width), parallel.WithGrain(64))
			for i := range xs {
				if xs[i] != want[i] {
					t.Fatalf("n=%d width=%d: xs[%d]=%d want %d", len(base), width, i, xs[i], want[i])
				}
			}
		}
	}
}

func TestSortNestedInsideRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const rows, cols = 4, 3000
	data := make([][]int, rows)
	for i := range data {
		data[i] = make([]int, cols)
		for j := range data[i] {
			data[i][j] = rng.Int()
		}
	}
	parallel.For(0, rows, func(i int) {
		parallel.Sort(data[i], func(a, b int) bool { return a < b }, parallel.WithGrain(256))
	}, parallel.WithThreads(4))
	for i := range data {
		if !sort.IntsAreSorted(data[i]) {
			t.Fatalf("row %d not sorted after nested Sort", i)
		}
	}
}
