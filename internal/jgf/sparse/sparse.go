// Package sparse reproduces the JGF SparseMatmult benchmark: repeated
// sparse matrix-vector multiplication y += A·x with A in compressed
// row-ordered triplet form. Rows carry wildly different nonzero counts, so
// a plain block distribution is unbalanced; the paper uses a
// *case-specific* for schedule that assigns each worker a row range with
// approximately equal nonzeros (Table 2: "PR, FOR (Case Specific), CS").
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"aomplib/internal/core"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/rng"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// Params sizes the benchmark.
type Params struct {
	// N is the matrix dimension, NZ the number of nonzeros, Iters the
	// number of multiplication sweeps.
	N, NZ, Iters int
}

// JGF problem sizes.
var (
	SizeA = Params{N: 50_000, NZ: 250_000, Iters: 200}
	SizeB = Params{N: 100_000, NZ: 500_000, Iters: 200}
	// SizeTest keeps unit tests fast.
	SizeTest = Params{N: 500, NZ: 3_000, Iters: 20}
)

// Sparse is the base program: triplets sorted by row, plus the row index
// (first triplet of each row) used by the balanced schedule.
type Sparse struct {
	n, nz, iters int
	row, col     []int
	val          []float64
	x, y         []float64
	// rowStart[r] is the first triplet index of row r (rowStart[n] = nz).
	rowStart []int
	ytotal   float64
}

// New builds the base program with a deterministic random matrix.
func New(p Params) *Sparse {
	s := generate(p)
	s.sortByRow()
	return s
}

// generate draws the matrix's triplets, in generation order, and x.
func generate(p Params) *Sparse {
	s := &Sparse{
		n: p.N, nz: p.NZ, iters: p.Iters,
		row: make([]int, p.NZ), col: make([]int, p.NZ), val: make([]float64, p.NZ),
		x: make([]float64, p.N), y: make([]float64, p.N),
	}
	r := rng.New(1966)
	for i := 0; i < p.NZ; i++ {
		s.row[i] = int(r.NextIntN(int32(p.N)))
		s.col[i] = int(r.NextIntN(int32(p.N)))
		s.val[i] = r.NextDouble()
	}
	for i := 0; i < p.N; i++ {
		s.x[i] = r.NextDouble()
	}
	return s
}

// sortByRow orders the triplets by row, so each row is contiguous — the
// JGF kernel relies on row-major traversal — and by column within a row,
// and builds rowStart. A counting pass by row places each triplet in its
// row, where an insertion by column moves it past the few placed before
// it: linear in nz, and equal (row, col) pairs keep generation order.
func (s *Sparse) sortByRow() {
	s.rowStart = make([]int, s.n+1)
	for _, r := range s.row {
		s.rowStart[r+1]++
	}
	for r := 0; r < s.n; r++ {
		s.rowStart[r+1] += s.rowStart[r]
	}
	next := slices.Clone(s.rowStart[:s.n])
	rr, cc, vv := make([]int, s.nz), make([]int, s.nz), make([]float64, s.nz)
	for i, r := range s.row {
		k := next[r]
		next[r]++
		rr[k], cc[k], vv[k] = r, s.col[i], s.val[i]
		for ; k > s.rowStart[r] && cc[k-1] > cc[k]; k-- {
			cc[k-1], cc[k] = cc[k], cc[k-1]
			vv[k-1], vv[k] = vv[k], vv[k-1]
		}
	}
	s.row, s.col, s.val = rr, cc, vv
}

// MultiplyRows is the for method over *row* indices [lo,hi): y[r] is
// written only by the worker owning row r, so no synchronisation on y is
// needed, exactly as in the JGF multi-threaded kernel.
func (s *Sparse) MultiplyRows(lo, hi, step int) {
	for r := lo; r < hi; r += step {
		acc := s.y[r]
		for k := s.rowStart[r]; k < s.rowStart[r+1]; k++ {
			acc += s.x[s.col[k]] * s.val[k]
		}
		s.y[r] = acc
	}
}

// BalancedSchedule is the case-specific schedule: contiguous row ranges
// with approximately equal nonzero counts per worker (the Table 2 "CS").
func (s *Sparse) BalancedSchedule(id, nthreads int, sp sched.Space) []sched.Space {
	if nthreads <= 1 {
		return []sched.Space{sp}
	}
	target := s.nz / nthreads
	// Boundaries in row space chosen by cumulative nonzeros.
	loRow, hiRow := sp.Lo, sp.Lo
	wantLo, wantHi := id*target, (id+1)*target
	if id == nthreads-1 {
		wantHi = s.nz
	}
	loRow = sort.SearchInts(s.rowStart[:s.n+1], wantLo)
	hiRow = sort.SearchInts(s.rowStart[:s.n+1], wantHi)
	if loRow > sp.Hi {
		loRow = sp.Hi
	}
	if hiRow > sp.Hi {
		hiRow = sp.Hi
	}
	if id == nthreads-1 {
		hiRow = sp.Hi
	}
	return []sched.Space{{Lo: loRow, Hi: hiRow, Step: sp.Step}}
}

// Sum computes the validation checksum.
func (s *Sparse) Sum() float64 {
	t := 0.0
	for _, v := range s.y {
		t += v
	}
	return t
}

func (s *Sparse) validate() error {
	if math.IsNaN(s.ytotal) || s.ytotal == 0 {
		return fmt.Errorf("sparse: checksum %v", s.ytotal)
	}
	return nil
}

// ------------------------------------------------------------- versions --

type seqInstance struct {
	p Params
	s *Sparse
}

// NewSeq returns the sequential version.
func NewSeq(p Params) harness.Instance { return &seqInstance{p: p} }

func (in *seqInstance) Setup() { in.s = New(in.p) }
func (in *seqInstance) Kernel() {
	for it := 0; it < in.s.iters; it++ {
		in.s.MultiplyRows(0, in.s.n, 1)
	}
	in.s.ytotal = in.s.Sum()
}
func (in *seqInstance) Validate() error { return in.s.validate() }

type mtInstance struct {
	p       Params
	threads int
	s       *Sparse
}

// NewMT returns the hand-threaded baseline with the same nonzero-balanced
// row partition the JGF Java-threads kernel computes by hand.
func NewMT(p Params, threads int) harness.Instance {
	return &mtInstance{p: p, threads: threads}
}

func (in *mtInstance) Setup() { in.s = New(in.p) }

func (in *mtInstance) Kernel() {
	s := in.s
	t := in.threads
	done := make(chan struct{}, t)
	for id := 0; id < t; id++ {
		go func(id int) {
			sub := s.BalancedSchedule(id, t, sched.Space{Lo: 0, Hi: s.n, Step: 1})[0]
			for it := 0; it < s.iters; it++ {
				s.MultiplyRows(sub.Lo, sub.Hi, sub.Step)
			}
			done <- struct{}{}
		}(id)
	}
	for id := 0; id < t; id++ {
		<-done
	}
	s.ytotal = s.Sum()
}

func (in *mtInstance) Validate() error { return in.s.validate() }

type aompInstance struct {
	p       Params
	threads int
	s       *Sparse
	run     func()
	prog    *weaver.Program
}

// NewAomp returns the AOmpLib version: parallel region + for with the
// case-specific balanced schedule plugged in via CustomSchedule.
func NewAomp(p Params, threads int) harness.Instance {
	return &aompInstance{p: p, threads: threads}
}

func (in *aompInstance) Setup() {
	in.s = New(in.p)
	in.prog = weaver.NewProgram("Sparse")
	prog := in.prog
	cls := prog.Class("Sparse")
	mult := cls.ForProc("multiplyRows", in.s.MultiplyRows)
	in.run = cls.Proc("run", func() {
		for it := 0; it < in.s.iters; it++ {
			mult(0, in.s.n, 1)
		}
	})
	prog.Use(core.ParallelRegion("call(* Sparse.run(..))").Threads(in.threads))
	prog.Use(core.ForShare("call(* Sparse.multiplyRows(..))").CustomSchedule(in.s.BalancedSchedule))
	prog.MustWeave()
}

func (in *aompInstance) Kernel() {
	in.run()
	in.s.ytotal = in.s.Sum()
}
func (in *aompInstance) Validate() error { return in.s.validate() }

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompInstance) Program() *weaver.Program { return in.prog }
