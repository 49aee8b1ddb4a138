// Package lufact reproduces the JGF LUFact benchmark — the Java Linpack
// kernel the paper uses as its case study (§III.E, Figs. 6-8): LU
// factorisation with partial pivoting (dgefa) followed by triangular
// solves (dgesl). The matrix is stored column-major (a[j] is column j), so
// the row-elimination loop over columns k+1..n is the parallel for method
// reduceAllCols; pivot selection, interchange and pivot-column scaling are
// master operations fenced by barriers (Table 2: "PR, FOR (block), 4xBR,
// 2xMA").
package lufact

import (
	"fmt"
	"math"

	"aomplib/internal/core"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/jgfutil"
	"aomplib/internal/rng"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// Params sizes the benchmark.
type Params struct {
	// N is the matrix dimension.
	N int
	// Schedule is the @For schedule of the Aomp version; the zero value is
	// sched.StaticBlock, the kernel's block distribution.
	Schedule sched.Kind
}

// JGF problem sizes.
var (
	SizeA = Params{N: 500}
	SizeB = Params{N: 1000}
	// SizeTest keeps unit tests fast.
	SizeTest = Params{N: 96}
)

// Linpack is the base program after the paper's refactoring.
type Linpack struct {
	n    int
	a    [][]float64 // a[j] is column j
	b    []float64
	x    []float64
	ipvt []int

	// copies for residual validation
	a0 [][]float64
	b0 []float64
}

// New builds the base program with the Linpack random matrix and b chosen
// so the solution is approximately all-ones.
func New(p Params) *Linpack {
	lp := &Linpack{
		n:    p.N,
		a:    make([][]float64, p.N),
		b:    make([]float64, p.N),
		x:    make([]float64, p.N),
		ipvt: make([]int, p.N),
		a0:   make([][]float64, p.N),
		b0:   make([]float64, p.N),
	}
	r := rng.New(1325)
	for j := 0; j < p.N; j++ {
		lp.a[j] = make([]float64, p.N)
		for i := 0; i < p.N; i++ {
			lp.a[j][i] = r.NextDouble() - 0.5
		}
	}
	for j := 0; j < p.N; j++ {
		for i := 0; i < p.N; i++ {
			lp.b[i] += lp.a[j][i]
		}
	}
	for j := 0; j < p.N; j++ {
		lp.a0[j] = append([]float64(nil), lp.a[j]...)
	}
	copy(lp.b0, lp.b)
	return lp
}

// idamax returns the index (relative to the column) of the element with
// the largest magnitude in col[from:n].
func idamax(col []float64, from, n int) int {
	best, bi := math.Abs(col[from]), from
	for i := from + 1; i < n; i++ {
		if v := math.Abs(col[i]); v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Interchange records the pivot and swaps the pivot element into place in
// the pivot column (paper Fig. 6); it runs on the master under barriers.
func (lp *Linpack) Interchange(k, l int) {
	lp.ipvt[k] = l
	if l != k {
		colK := lp.a[k]
		colK[l], colK[k] = colK[k], colK[l]
	}
}

// Dscal computes the multipliers: scales the pivot column below the
// diagonal by -1/pivot (master operation).
func (lp *Linpack) Dscal(k int) {
	colK := lp.a[k]
	t := -1.0 / colK[k]
	for i := k + 1; i < lp.n; i++ {
		colK[i] *= t
	}
}

// ReduceAllCols is the for method of the case study: row elimination with
// column indexing for columns [lo,hi), using pivot column k and pivot row
// l. Each column is touched by exactly one worker.
func (lp *Linpack) ReduceAllCols(lo, hi, step int, k, l int) {
	colK := lp.a[k]
	for j := lo; j < hi; j += step {
		colJ := lp.a[j]
		t := colJ[l]
		if l != k {
			colJ[l] = colJ[k]
			colJ[k] = t
		}
		// daxpy: colJ[k+1:] += t * colK[k+1:]
		if t != 0 {
			for i := k + 1; i < lp.n; i++ {
				colJ[i] += t * colK[i]
			}
		}
	}
}

// Dgesl solves the factored system (forward elimination + back
// substitution); O(n²), run sequentially as in JGF.
func (lp *Linpack) Dgesl() {
	n := lp.n
	copy(lp.x, lp.b)
	for k := 0; k < n-1; k++ {
		l := lp.ipvt[k]
		t := lp.x[l]
		if l != k {
			lp.x[l] = lp.x[k]
			lp.x[k] = t
		}
		colK := lp.a[k]
		for i := k + 1; i < n; i++ {
			lp.x[i] += t * colK[i]
		}
	}
	for k := n - 1; k >= 0; k-- {
		lp.x[k] /= lp.a[k][k]
		t := -lp.x[k]
		colK := lp.a[k]
		for i := 0; i < k; i++ {
			lp.x[i] += t * colK[i]
		}
	}
}

// validate computes the normalised residual ‖A₀x−b₀‖∞ and checks it is at
// rounding level, as the Linpack benchmark does.
func (lp *Linpack) validate() error {
	n := lp.n
	resid, normA, normX := 0.0, 0.0, 0.0
	r := make([]float64, n)
	for i := range r {
		r[i] = -lp.b0[i]
	}
	for j := 0; j < n; j++ {
		xj := lp.x[j]
		for i := 0; i < n; i++ {
			r[i] += lp.a0[j][i] * xj
		}
		for i := 0; i < n; i++ {
			if v := math.Abs(lp.a0[j][i]); v > normA {
				normA = v
			}
		}
		if v := math.Abs(xj); v > normX {
			normX = v
		}
	}
	for i := 0; i < n; i++ {
		if v := math.Abs(r[i]); v > resid {
			resid = v
		}
	}
	eps := 2.220446049250313e-16
	thresh := float64(n) * normA * normX * eps * 100
	if resid > thresh || math.IsNaN(resid) {
		return fmt.Errorf("lufact: residual %g exceeds %g", resid, thresh)
	}
	return nil
}

// dgefaSeq is the sequential factorisation driving all three versions'
// control flow.
func (lp *Linpack) dgefaSeq() {
	n := lp.n
	for k := 0; k < n-1; k++ {
		l := idamax(lp.a[k], k, n)
		lp.Interchange(k, l)
		if lp.a[k][k] != 0 {
			lp.Dscal(k)
			lp.ReduceAllCols(k+1, n, 1, k, l)
		}
	}
	lp.ipvt[n-1] = n - 1
}

// ------------------------------------------------------------- versions --

type seqInstance struct {
	p  Params
	lp *Linpack
}

// NewSeq returns the sequential version.
func NewSeq(p Params) harness.Instance { return &seqInstance{p: p} }

func (in *seqInstance) Setup() { in.lp = New(in.p) }
func (in *seqInstance) Kernel() {
	in.lp.dgefaSeq()
	in.lp.Dgesl()
}
func (in *seqInstance) Validate() error { return in.lp.validate() }

type mtInstance struct {
	p       Params
	threads int
	lp      *Linpack
}

// NewMT returns the hand-threaded baseline: every worker runs the outer
// factorisation loop; worker 0 performs pivoting and scaling between
// barriers; the elimination columns are block-distributed per step.
func NewMT(p Params, threads int) harness.Instance {
	return &mtInstance{p: p, threads: threads}
}

func (in *mtInstance) Setup() { in.lp = New(in.p) }

func (in *mtInstance) Kernel() {
	lp := in.lp
	n := lp.n
	bar := jgfutil.NewBarrier(in.threads)
	// curL is committed by worker 0 between barriers and read by everyone
	// afterwards (the barriers order the accesses).
	var curL int
	jgfutil.Run(in.threads, func(id int) {
		for k := 0; k < n-1; k++ {
			bar.Wait()
			if id == 0 {
				curL = idamax(lp.a[k], k, n)
				lp.Interchange(k, curL)
			}
			bar.Wait()
			if lp.a[k][k] != 0 {
				if id == 0 {
					lp.Dscal(k)
				}
				bar.Wait()
				lo, hi := jgfutil.Block(n-(k+1), in.threads, id)
				lp.ReduceAllCols(k+1+lo, k+1+hi, 1, k, curL)
				bar.Wait()
			}
		}
		if id == 0 {
			lp.ipvt[n-1] = n - 1
		}
	})
	lp.Dgesl()
}

func (in *mtInstance) Validate() error { return in.lp.validate() }

type aompInstance struct {
	p       Params
	threads int
	lp      *Linpack
	run     func()
	prog    *weaver.Program
}

// NewAomp returns the AOmpLib version structured exactly as the paper's
// Figure 7 aspect: dgefa is the parallel region; reduceAllCols carries the
// for construct; interchange and dscal are master operations; four barrier
// points fence the phases.
func NewAomp(p Params, threads int) harness.Instance {
	return &aompInstance{p: p, threads: threads}
}

func (in *aompInstance) Setup() {
	in.lp = New(in.p)
	lp := in.lp
	in.prog = weaver.NewProgram("Linpack")
	prog := in.prog
	cls := prog.Class("Linpack")

	// The pivot row/column indices of the current step are committed by
	// the master inside interchange (fenced by its barriers) and read by
	// everyone afterwards, mirroring the omitted parameters of the paper's
	// sketch.
	var curK, curL int
	interchange := cls.KeyedProc("interchange", func(k int) {
		l := idamax(lp.a[k], k, lp.n)
		curK, curL = k, l
		lp.Interchange(k, l)
	})
	dscal := cls.Proc("dscal", func() { lp.Dscal(curK) })
	reduceAllCols := cls.ForProc("reduceAllCols", func(lo, hi, step int) {
		lp.ReduceAllCols(lo, hi, step, curK, curL)
	})
	dgefa := cls.Proc("dgefa", func() {
		n := lp.n
		for k := 0; k < n-1; k++ {
			interchange(k)
			if lp.a[k][k] != 0 {
				dscal()
				reduceAllCols(k+1, n, 1)
			}
		}
	})
	in.run = func() {
		dgefa()
		lp.ipvt[lp.n-1] = lp.n - 1
		lp.Dgesl()
	}

	prog.Use(core.ParallelRegion("call(* Linpack.dgefa(..))").Threads(in.threads))
	// NoWait: the barrier after reduceAllCols ends the phase, so a
	// dispensing schedule's implicit one would be a second wait.
	prog.Use(core.ForShare("call(* Linpack.reduceAllCols(..))").Schedule(in.p.Schedule).NoWait())
	prog.Use(core.MasterSection("call(* Linpack.interchange(..)) || call(* Linpack.dscal(..))"))
	prog.Use(core.BarrierBeforePoint("call(* Linpack.interchange(..))"))
	prog.Use(core.BarrierAfterPoint(
		"call(* Linpack.reduceAllCols(..)) || call(* Linpack.interchange(..)) || call(* Linpack.dscal(..))"))
	prog.MustWeave()
}

func (in *aompInstance) Kernel()         { in.run() }
func (in *aompInstance) Validate() error { return in.lp.validate() }

// Reseed restores the matrix Setup built and keeps its woven program, so
// that repeated kernels run on one weave. The kernel factors a in place
// and solves into x, leaving b as it was.
func (in *aompInstance) Reseed() {
	for j, col := range in.lp.a0 {
		copy(in.lp.a[j], col)
	}
}

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompInstance) Program() *weaver.Program { return in.prog }

type aompDepInstance struct {
	p       Params
	threads int
	lp      *Linpack
	run     func()
	prog    *weaver.Program
}

// NewAompDep returns the dataflow (wavefront) AOmpLib version: instead of
// fencing every factorisation step with team barriers, the master spawns
// one pivot task per step and one update task per column block, ordered by
// @Depend clauses. A pivot task publishes its column (out=&a[k]) after
// taking over the block that owns it (inout=block); update tasks read the
// pivot column (in=&a[k]) and own their block (inout=block). Step k+1's
// pivot therefore starts as soon as the update of its own block retires,
// while the remaining blocks of step k are still in flight — the classic
// lookahead wavefront that barrier-based LUFact cannot express.
func NewAompDep(p Params, threads int) harness.Instance {
	return &aompDepInstance{p: p, threads: threads}
}

func (in *aompDepInstance) Setup() {
	in.lp = New(in.p)
	lp := in.lp
	n := lp.n
	// Column blocks: enough to keep every worker busy with lookahead work,
	// coarse enough that a block update amortises its task bookkeeping.
	nb := in.threads * 2
	if nb > n {
		nb = n
	}
	width := (n + nb - 1) / nb
	nb = (n + width - 1) / width
	lvals := make([]int, n) // pivot row per step, published by the pivot task
	zero := make([]bool, n) // exact-zero pivots: that step eliminates nothing
	blocks := make([]byte, nb)

	in.prog = weaver.NewProgram("LinpackDF")
	prog := in.prog
	cls := prog.Class("Linpack")

	pivot := cls.KeyedProc("pivot", func(k int) {
		l := idamax(lp.a[k], k, n)
		lvals[k] = l
		lp.Interchange(k, l)
		if lp.a[k][k] != 0 {
			lp.Dscal(k)
		} else {
			zero[k] = true
		}
	})
	// updateBlock(key) eliminates columns (k, n) ∩ block jb with pivot
	// column k, where key = k*nb + jb.
	update := cls.KeyedProc("updateBlock", func(key int) {
		k, jb := key/nb, key%nb
		if zero[k] {
			return
		}
		lo := k + 1
		if b := jb * width; b > lo {
			lo = b
		}
		hi := (jb + 1) * width
		if hi > n {
			hi = n
		}
		lp.ReduceAllCols(lo, hi, 1, k, lvals[k])
	})
	spawnAll := cls.Proc("spawnAll", func() {
		for k := 0; k < n-1; k++ {
			pivot(k)
			for jb := (k + 1) / width; jb < nb; jb++ {
				update(k*nb + jb)
			}
		}
	})
	factor := cls.Proc("factor", func() { spawnAll() })

	prog.MustAnnotate("Linpack.factor", core.Parallel{Threads: in.threads})
	prog.MustAnnotate("Linpack.spawnAll", core.Master{})
	prog.MustAnnotate("Linpack.pivot", core.Task{}, core.Depend{
		Out:   []any{core.DepFn(func(k int) any { return &lp.a[k] })},
		InOut: []any{core.DepFn(func(k int) any { return &blocks[k/width] })},
	})
	prog.MustAnnotate("Linpack.updateBlock", core.Task{}, core.Depend{
		In:    []any{core.DepFn(func(key int) any { return &lp.a[key/nb] })},
		InOut: []any{core.DepFn(func(key int) any { return &blocks[key%nb] })},
	})
	prog.Use(core.AnnotationAspects(prog)...)
	prog.MustWeave()

	in.run = func() {
		factor()
		lp.ipvt[n-1] = n - 1
		lp.Dgesl()
	}
}

func (in *aompDepInstance) Kernel()         { in.run() }
func (in *aompDepInstance) Validate() error { return in.lp.validate() }

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompDepInstance) Program() *weaver.Program { return in.prog }
