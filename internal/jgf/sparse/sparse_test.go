package sparse

import (
	"cmp"
	"slices"
	"testing"

	"aomplib/internal/jgf/harness"
	"aomplib/internal/sched"
)

func runAll(t *testing.T, p Params, threads int) (*seqInstance, *mtInstance, *aompInstance) {
	t.Helper()
	seq := NewSeq(p).(*seqInstance)
	mt := NewMT(p, threads).(*mtInstance)
	ao := NewAomp(p, threads).(*aompInstance)
	for _, in := range []harness.Instance{seq, mt, ao} {
		in.Setup()
		in.Kernel()
		if err := in.Validate(); err != nil {
			t.Fatalf("validation: %v", err)
		}
	}
	return seq, mt, ao
}

func TestAllVersionsAgreeBitwise(t *testing.T) {
	// Rows are owned by single workers in every version, so y must be
	// bit-identical.
	seq, mt, ao := runAll(t, SizeTest, 3)
	for i := range seq.s.y {
		if seq.s.y[i] != mt.s.y[i] {
			t.Fatalf("MT y[%d] differs", i)
		}
		if seq.s.y[i] != ao.s.y[i] {
			t.Fatalf("Aomp y[%d] differs", i)
		}
	}
}

func TestRowStartMonotone(t *testing.T) {
	s := New(SizeTest)
	for r := 0; r < s.n; r++ {
		if s.rowStart[r] > s.rowStart[r+1] {
			t.Fatalf("rowStart not monotone at %d", r)
		}
		for k := s.rowStart[r]; k < s.rowStart[r+1]; k++ {
			if s.row[k] != r {
				t.Fatalf("triplet %d has row %d, want %d", k, s.row[k], r)
			}
		}
	}
	if s.rowStart[s.n] != s.nz {
		t.Fatalf("rowStart[n] = %d, want %d", s.rowStart[s.n], s.nz)
	}
}

// sortByRow leaves every row contiguous with its columns ascending, keeps
// equal (row, col) pairs in generation order and loses or invents no
// triplet. The generated matrix is squeezed into few rows and columns so
// that ties are common; each value is its generation index.
func TestSortByRowIsStableRowMajor(t *testing.T) {
	p := Params{N: 40, NZ: 4000}
	s := generate(p)
	for i := range s.col {
		s.col[i] %= 8
		s.val[i] = float64(i)
	}
	type triplet struct {
		row, col int
		val      float64
	}
	var want []triplet
	for i := range s.row {
		want = append(want, triplet{s.row[i], s.col[i], s.val[i]})
	}
	s.sortByRow()
	var got []triplet
	for r := 0; r < p.N; r++ {
		for k := s.rowStart[r]; k < s.rowStart[r+1]; k++ {
			if s.row[k] != r {
				t.Fatalf("triplet %d has row %d inside row %d's range", k, s.row[k], r)
			}
			if k > s.rowStart[r] && (s.col[k-1] > s.col[k] || s.col[k-1] == s.col[k] && s.val[k-1] > s.val[k]) {
				t.Fatalf("row %d: (col %d, generated %v) before (col %d, generated %v)", r, s.col[k-1], s.val[k-1], s.col[k], s.val[k])
			}
		}
	}
	if s.rowStart[0] != 0 || s.rowStart[p.N] != p.NZ {
		t.Fatalf("rows span [%d, %d), want [0, %d)", s.rowStart[0], s.rowStart[p.N], p.NZ)
	}
	for k := range s.row {
		got = append(got, triplet{s.row[k], s.col[k], s.val[k]})
	}
	slices.SortFunc(got, func(x, y triplet) int { return cmp.Compare(x.val, y.val) })
	if !slices.Equal(got, want) {
		t.Fatal("the sorted triplets are not the generated ones")
	}
}

func TestBalancedScheduleCoversAllRowsOnce(t *testing.T) {
	s := New(SizeTest)
	sp := sched.Space{Lo: 0, Hi: s.n, Step: 1}
	for _, threads := range []int{1, 2, 3, 5, 8} {
		covered := make([]int, s.n)
		for id := 0; id < threads; id++ {
			for _, sub := range s.BalancedSchedule(id, threads, sp) {
				for r := sub.Lo; r < sub.Hi; r += sub.Step {
					covered[r]++
				}
			}
		}
		for r, c := range covered {
			if c != 1 {
				t.Fatalf("threads=%d: row %d covered %d times", threads, r, c)
			}
		}
	}
}

func TestBalancedScheduleBalancesNonzeros(t *testing.T) {
	s := New(Params{N: 2000, NZ: 20000, Iters: 1})
	sp := sched.Space{Lo: 0, Hi: s.n, Step: 1}
	const threads = 4
	var counts [threads]int
	for id := 0; id < threads; id++ {
		for _, sub := range s.BalancedSchedule(id, threads, sp) {
			counts[id] += s.rowStart[sub.Hi] - s.rowStart[sub.Lo]
		}
	}
	target := s.nz / threads
	for id, c := range counts {
		if c < target/2 || c > target*2 {
			t.Fatalf("worker %d has %d nonzeros, target %d — schedule unbalanced", id, c, target)
		}
	}
}

func TestSingleThread(t *testing.T) {
	runAll(t, Params{N: 200, NZ: 1000, Iters: 3}, 1)
}
