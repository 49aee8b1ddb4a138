package sched

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSpaceCount(t *testing.T) {
	cases := []struct {
		sp   Space
		want int
	}{
		{Space{0, 10, 1}, 10},
		{Space{0, 10, 3}, 4}, // 0,3,6,9
		{Space{0, 0, 1}, 0},
		{Space{5, 5, 1}, 0},
		{Space{10, 0, 1}, 0},
		{Space{3, 10, 2}, 4}, // 3,5,7,9
		{Space{10, 0, -1}, 10},
		{Space{10, 0, -3}, 4}, // 10,7,4,1
		{Space{0, 10, -1}, 0},
		{Space{0, 1, 100}, 1},
		{Space{0, 1, 0}, 0},

		// Boundaries: the bounds' difference or the rounding wraps an int
		// although the count fits; -1 is a count past math.MaxInt.
		{Space{0, math.MaxInt, 1}, math.MaxInt},
		{Space{0, math.MaxInt, 2}, 1 << 62},
		{Space{0, math.MaxInt, math.MaxInt}, 1},
		{Space{1, math.MaxInt, math.MaxInt}, 1},
		{Space{-10, math.MaxInt - 5, 1 << 50}, 8193},
		{Space{math.MinInt, math.MaxInt, math.MaxInt}, 3}, // MinInt, -1, MaxInt-1
		{Space{math.MinInt, math.MaxInt, 2}, -1},
		{Space{math.MinInt, math.MaxInt, 4}, 1 << 62},
		{Space{math.MinInt, 0, 1}, -1},
		{Space{math.MinInt, math.MaxInt, 1}, -1},
		{Space{-1, math.MaxInt, 1}, -1},
		{Space{math.MaxInt, 0, -2}, 1 << 62},
		{Space{math.MaxInt, math.MinInt, -1}, -1},
		{Space{math.MaxInt, math.MinInt, math.MinInt}, 2}, // MaxInt, -1
		{Space{math.MaxInt, math.MinInt, -math.MaxInt}, 3},
		{Space{0, math.MinInt, math.MinInt}, 1},
		{Space{math.MaxInt, -1, -1}, -1},
		{Space{math.MaxInt, 0, -1}, math.MaxInt},
		// Empty at the ends of the range, the last two with a difference
		// that wraps positive.
		{Space{math.MaxInt, math.MaxInt, 1}, 0},
		{Space{math.MaxInt, math.MinInt, 1}, 0},
		{Space{1, math.MinInt, 1}, 0},
		{Space{math.MinInt, math.MaxInt, -1}, 0},
		{Space{math.MinInt, math.MinInt, math.MinInt}, 0},
		{Space{math.MaxInt, math.MinInt, math.MaxInt}, 0},
	}
	for _, c := range cases {
		if got := c.sp.Count(); got != c.want {
			t.Errorf("%v.Count() = %d, want %d", c.sp, got, c.want)
		}
	}
}

func TestSpaceValidate(t *testing.T) {
	for _, sp := range []Space{{0, 1, 0}, {math.MinInt, math.MaxInt, 1}, {math.MaxInt, -1, -1}} {
		if err := sp.Validate(); err == nil {
			t.Errorf("%v not rejected", sp)
		}
	}
	for _, sp := range []Space{{0, 1, 1}, {0, math.MaxInt, 1}, {math.MaxInt, math.MinInt, math.MinInt}, {5, 0, 1}} {
		if err := sp.Validate(); err != nil {
			t.Errorf("valid space rejected: %v", err)
		}
	}
}

func TestSpaceSlice(t *testing.T) {
	sp := Space{3, 20, 2} // 3,5,7,9,11,13,15,17,19
	sub := sp.Slice(2, 5) // 7,9,11
	if got := sub.Values(); len(got) != 3 || got[0] != 7 || got[2] != 11 {
		t.Errorf("Slice(2,5) = %v, want [7 9 11]", got)
	}
	if empty := sp.Slice(4, 4); empty.Count() != 0 {
		t.Errorf("empty slice has %d iterations", empty.Count())
	}
	// Clamping.
	if got := sp.Slice(-5, 100).Count(); got != sp.Count() {
		t.Errorf("clamped slice count = %d, want %d", got, sp.Count())
	}
}

// The unit-step paths of Count and Slice (no division) must agree with the
// general formulas: a unit-step space and the same values walked at step -1
// from the other end slice into the same sets, clamping included.
func TestSpaceUnitStepMatchesGeneral(t *testing.T) {
	for lo := -3; lo <= 3; lo++ {
		for hi := lo - 2; hi <= lo+9; hi++ {
			unit, rev := Space{lo, hi, 1}, Space{hi - 1, lo - 1, -1}
			if unit.Count() != rev.Count() {
				t.Fatalf("%v.Count() = %d, general path says %d", unit, unit.Count(), rev.Count())
			}
			n := unit.Count()
			for from := -1; from <= n+1; from++ {
				for to := from - 1; to <= n+2; to++ {
					got := unit.Slice(from, to).Values()
					want := rev.Slice(n-min(to, n), n-max(from, 0)).Values()
					if len(got) != len(want) {
						t.Fatalf("%v.Slice(%d,%d) = %v, general path gives %v", unit, from, to, got, want)
					}
					for i := range got {
						if got[i] != want[len(want)-1-i] {
							t.Fatalf("%v.Slice(%d,%d) = %v, general path gives %v reversed", unit, from, to, got, want)
						}
					}
				}
			}
		}
	}
}

// collectStatic runs a static partitioner across all workers and returns
// every executed loop value.
func collectStatic(part func(Space, int, int) Space, sp Space, nthreads int) []int {
	var all []int
	for id := 0; id < nthreads; id++ {
		all = append(all, part(sp, nthreads, id).Values()...)
	}
	return all
}

func sameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ac := append([]int(nil), a...)
	bc := append([]int(nil), b...)
	sort.Ints(ac)
	sort.Ints(bc)
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}

// Property: Block and Cyclic both execute every iteration exactly once,
// for any space and team size.
func TestStaticPartitionCoverageProperty(t *testing.T) {
	f := func(lo int8, count uint8, step uint8, nth uint8) bool {
		st := int(step%7) + 1
		sp := Space{Lo: int(lo), Step: st}
		sp.Hi = sp.Lo + int(count%64)*st // exactly count%64 iterations
		n := int(nth%9) + 1
		want := sp.Values()
		return sameMultiset(collectStatic(Block, sp, n), want) &&
			sameMultiset(collectStatic(Cyclic, sp, n), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: static partitions also cover negative-step loops.
func TestStaticPartitionNegativeStepProperty(t *testing.T) {
	f := func(lo int8, count uint8, step uint8, nth uint8) bool {
		st := -(int(step%7) + 1)
		sp := Space{Lo: int(lo), Step: st}
		sp.Hi = sp.Lo + int(count%64)*st
		n := int(nth%9) + 1
		want := sp.Values()
		return sameMultiset(collectStatic(Block, sp, n), want) &&
			sameMultiset(collectStatic(Cyclic, sp, n), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBalanced(t *testing.T) {
	// 10 iterations over 4 workers: sizes must be 3,3,2,2.
	sp := Space{0, 10, 1}
	sizes := make([]int, 4)
	for id := 0; id < 4; id++ {
		sizes[id] = Block(sp, 4, id).Count()
	}
	want := []int{3, 3, 2, 2}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("block sizes = %v, want %v", sizes, want)
		}
	}
}

func TestBlockContiguous(t *testing.T) {
	sp := Space{0, 100, 1}
	prevEnd := 0
	for id := 0; id < 7; id++ {
		b := Block(sp, 7, id)
		vals := b.Values()
		if len(vals) == 0 {
			continue
		}
		if vals[0] != prevEnd {
			t.Fatalf("worker %d starts at %d, want %d", id, vals[0], prevEnd)
		}
		prevEnd = vals[len(vals)-1] + 1
	}
	if prevEnd != 100 {
		t.Fatalf("coverage ends at %d, want 100", prevEnd)
	}
}

func TestCyclicInterleaving(t *testing.T) {
	sp := Space{0, 8, 1}
	got := Cyclic(sp, 3, 1).Values()
	want := []int{1, 4, 7}
	if !sameMultiset(got, want) {
		t.Fatalf("cyclic id=1 = %v, want %v", got, want)
	}
}

func TestCyclicMoreWorkersThanIterations(t *testing.T) {
	sp := Space{0, 2, 1}
	if got := Cyclic(sp, 8, 5).Count(); got != 0 {
		t.Fatalf("worker beyond iteration count got %d iterations", got)
	}
	all := collectStatic(Cyclic, sp, 8)
	if !sameMultiset(all, []int{0, 1}) {
		t.Fatalf("coverage = %v", all)
	}
}

// TestCyclicHugeSteps: a share of one iteration needs no stride, so a
// cyclic deal whose stride |Step|·nthreads overflows an int still covers
// every iteration once when no worker holds two; when one does,
// ValidateCyclic errors and that worker's Cyclic panics with it.
func TestCyclicHugeSteps(t *testing.T) {
	for _, c := range []struct {
		sp   Space
		n    int
		want []int // nil: ValidateCyclic errors
	}{
		{Space{0, math.MaxInt, math.MaxInt}, 2, []int{0}},
		{Space{0, math.MaxInt, math.MaxInt}, 1, []int{0}},
		{Space{math.MaxInt, math.MinInt, math.MinInt}, 2, []int{math.MaxInt, -1}},
		{Space{math.MinInt, math.MaxInt, math.MaxInt}, 3, []int{math.MinInt, -1, math.MaxInt - 1}},
		{Space{math.MinInt, math.MaxInt, math.MaxInt}, 2, nil},
		{Space{math.MinInt, math.MaxInt, 1 << 62}, 2, nil},
		{Space{math.MaxInt, math.MinInt, -(1 << 62)}, 2, []int{math.MaxInt, math.MaxInt - 1<<62, -1, -1 - 1<<62}}, // stride MinInt fits
		{Space{math.MaxInt, math.MinInt, -(1 << 62) - 1}, 2, nil},
		{Space{math.MinInt, math.MaxInt, 1 << 61}, 2, []int{math.MinInt, -3 << 61, -1 << 62, -1 << 61, 0, 1 << 61, 1 << 62, 3 << 61}},
		{Space{math.MinInt, math.MaxInt, 1 << 61}, 4, nil},
	} {
		err := c.sp.ValidateCyclic(c.n)
		if (err != nil) != (c.want == nil) {
			t.Errorf("%v over %d: ValidateCyclic = %v", c.sp, c.n, err)
			continue
		}
		if err != nil {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v over %d: worker 0's Cyclic did not panic", c.sp, c.n)
					}
				}()
				Cyclic(c.sp, c.n, 0)
			}()
			continue
		}
		if got := collectStatic(Cyclic, c.sp, c.n); !sameMultiset(got, c.want) {
			t.Errorf("%v over %d: coverage %v, want %v", c.sp, c.n, got, c.want)
		}
	}
	for _, sp := range []Space{{0, 1, 0}, {math.MinInt, math.MaxInt, 1}} {
		if sp.ValidateCyclic(2) == nil {
			t.Errorf("%v: ValidateCyclic passed a space Validate rejects", sp)
		}
	}
	// Strides that fit: the whole 8193-iteration space, dealt over two.
	if got := len(collectStatic(Cyclic, Space{-10, math.MaxInt - 5, 1 << 50}, 2)); got != 8193 {
		t.Errorf("cyclic coverage of 8193 iterations = %d", got)
	}
}

func TestDispenserSequential(t *testing.T) {
	sp := Space{0, 10, 1}
	d := NewDispenser(sp, 3, false, 2)
	var got []int
	for {
		from, to, ok := d.Next()
		if !ok {
			break
		}
		for i := from; i < to; i++ {
			got = append(got, sp.At(int(i)))
		}
	}
	if !sameMultiset(got, sp.Values()) {
		t.Fatalf("dynamic coverage = %v", got)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

// Property: under concurrent draining, every iteration index is dispensed
// exactly once regardless of chunk size, policy, or worker count.
func TestDispenserConcurrentExactlyOnce(t *testing.T) {
	f := func(count uint16, chunk uint8, guided bool, nth uint8) bool {
		n := int(count % 2000)
		workers := int(nth%8) + 1
		sp := Space{0, n, 1}
		d := NewDispenser(sp, int(chunk%9), guided, workers)
		hits := make([]int32, n)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					from, to, ok := d.Next()
					if !ok {
						return
					}
					for i := from; i < to; i++ {
						hits[i]++ // each index owned by one goroutine
					}
				}
			}()
		}
		wg.Wait()
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGuidedChunksShrink(t *testing.T) {
	sp := Space{0, 1024, 1}
	d := NewDispenser(sp, 1, true, 4)
	var sizes []int64
	for {
		from, to, ok := d.Next()
		if !ok {
			break
		}
		sizes = append(sizes, to-from)
	}
	if len(sizes) < 3 {
		t.Fatalf("guided produced only %d chunks", len(sizes))
	}
	if sizes[0] != 1024/8 {
		t.Fatalf("first guided chunk = %d, want 128", sizes[0])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("guided chunk grew: %v", sizes)
		}
	}
	var sum int64
	for _, s := range sizes {
		sum += s
	}
	if sum != 1024 {
		t.Fatalf("guided dispensed %d iterations, want 1024", sum)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		StaticBlock:  "staticBlock",
		StaticCyclic: "staticCyclic",
		Dynamic:      "dynamic",
		Guided:       "guided",
		Custom:       "caseSpecific",
		Kind(42):     "Kind(42)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestDispenserChunkFloor(t *testing.T) {
	d := NewDispenser(Space{0, 5, 1}, 0, false, 0)
	from, to, ok := d.Next()
	if !ok || from != 0 || to != 1 {
		t.Fatalf("chunk<1 not floored to 1: %d %d %v", from, to, ok)
	}
}

// checkClaimShape draws every claim of a (n, chunk, T, guided) loop and
// asserts the claim rule documented on NextBatch: claims tile [0,n) in
// cursor order (the cursor never moves backwards); every claim but the one
// holding the last iteration is at least one chunk; and a dynamic claim is
// a whole number of chunks, four while more than 4·T chunks remain and one
// from there on. It returns the number of claims.
func checkClaimShape(t testing.TB, n, chunk, nthreads int, guided bool) int {
	t.Helper()
	d := NewDispenser(Space{0, n, 1}, chunk, guided, nthreads)
	c, total, width := int64(max(1, min(chunk, n))), int64(n), int64(max(1, nthreads))
	var cursor int64
	for claims := 0; ; claims++ {
		from, to, ok := d.NextBatch(4)
		if !ok {
			if cursor != total && n > 0 {
				t.Fatalf("n=%d chunk=%d T=%d guided=%v: claims cover %d iterations", n, chunk, nthreads, guided, cursor)
			}
			return claims
		}
		if from != cursor || to <= from || to > total {
			t.Fatalf("n=%d chunk=%d T=%d guided=%v: claim [%d,%d) after cursor %d", n, chunk, nthreads, guided, from, to, cursor)
		}
		cursor = to
		size, left, want := to-from, total-from, c
		switch {
		case to == total: // the last claim: at most what the rule below allows
			if !guided && (size-1)/4 >= c {
				t.Fatalf("n=%d chunk=%d T=%d: last claim [%d,%d) exceeds 4 chunks", n, chunk, nthreads, from, to)
			}
			continue
		case guided:
			want = max(c, left/(2*width))
		case (left-1)/c >= 4*width: // more than 4·T chunks remain
			want = 4 * c
		}
		if size != want {
			t.Fatalf("n=%d chunk=%d T=%d guided=%v: claim [%d,%d) with %d left is %d iterations, want %d", n, chunk, nthreads, guided, from, to, left, size, want)
		}
	}
}

// TestDispenserClaimShape pins the claim rule on a table, including the
// claim counts the serve path above it is gated on (rt's
// TestDispenseServesWholeClaims) and the sizes whose products overflow.
func TestDispenserClaimShape(t *testing.T) {
	for _, tc := range []struct {
		n, chunk, nthreads int
		guided             bool
		claims             int // 0: not pinned
	}{
		{1024, 16, 1, false, 19},
		{1024, 16, 2, false, 22},
		{4096, 16, 2, false, 70},
		{1000, 5, 2, false, 0},
		{1000, 7, 3, false, 0},
		{129, 16, 2, false, 6}, // one past 4·T chunks: one 4-chunk claim, then singles
		{128, 16, 2, false, 8}, // exactly 4·T chunks: singles throughout
		{37, 3, 7, false, 13},
		{100, 0, 2, false, 0},
		{100, -5, 2, false, 0},
		{100, 1000, 2, false, 1},
		{100, math.MaxInt, 2, false, 1},
		{100, math.MaxInt / 2, 2, false, 1},
		{100, math.MaxInt/4 + 1, 2, false, 1},
		{math.MaxInt, math.MaxInt, 2, false, 1},
		{math.MaxInt, math.MaxInt / 4, 2, false, 5},
		{math.MaxInt, math.MaxInt/8 + 1, 1, false, 5}, // 7 chunks and a bit: one 4-chunk claim, then singles
		{1024, 16, 2, true, 0},
		{1000, 1, 4, true, 0},
		{100, math.MaxInt, 2, true, 1},
		{math.MaxInt, 1 << 40, 2, true, 0},
		{0, 4, 2, false, 0},
	} {
		claims := checkClaimShape(t, tc.n, tc.chunk, tc.nthreads, tc.guided)
		if tc.claims != 0 && claims != tc.claims {
			t.Errorf("n=%d chunk=%d T=%d guided=%v: %d claims, want %d", tc.n, tc.chunk, tc.nthreads, tc.guided, claims, tc.claims)
		}
	}
}

// TestDispenserHugeChunkConcurrent is the overflow regression at the
// dispenser: total = chunk = MaxInt at T=2, drawn by two goroutines, hands
// out every iteration once and never moves the cursor backwards (at the
// parent chunk·4 went negative and the CAS rewound the cursor).
func TestDispenserHugeChunkConcurrent(t *testing.T) {
	for _, guided := range []bool{false, true} {
		d := NewDispenser(Space{0, math.MaxInt, 1}, math.MaxInt, guided, 2)
		var wg sync.WaitGroup
		var covered atomic.Int64
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last int64 = -1
				for draws := 0; draws < 1000; draws++ {
					from, to, ok := d.NextBatch(4)
					if !ok {
						return
					}
					if from <= last || to <= from {
						t.Errorf("guided=%v: claim [%d,%d) after %d: the cursor went backwards", guided, from, to, last)
						return
					}
					last = from
					covered.Add(to - from)
				}
				t.Errorf("guided=%v: still drawing after 1000 claims", guided)
			}()
		}
		wg.Wait()
		if covered.Load() != math.MaxInt {
			t.Errorf("guided=%v: covered %d iterations, want MaxInt", guided, covered.Load())
		}
	}
}
