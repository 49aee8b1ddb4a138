// Package series reproduces the JGF Series benchmark: the first n Fourier
// coefficients of f(x) = (x+1)^x on [0,2], computed by trapezoid
// integration with 1000 sub-intervals per coefficient. Work per
// coefficient is uniform, so the paper parallelises it with a parallel
// region and a block-scheduled for method (Table 2: "PR, FOR (block)";
// refactorings M2FOR + M2M).
package series

import (
	"fmt"
	"math"

	"aomplib/internal/core"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
	"aomplib/parallel"
)

// Params sizes the benchmark.
type Params struct {
	// N is the number of Fourier coefficient pairs.
	N int
	// Schedule is the loop schedule of the Aomp and Parallel versions; the
	// zero value is sched.StaticBlock, the kernel's block distribution.
	Schedule sched.Kind
}

// JGF problem sizes (size A is 10000 coefficients).
var (
	SizeA = Params{N: 10000}
	SizeB = Params{N: 100000}
	// SizeTest keeps unit tests and CI-scale benches fast.
	SizeTest = Params{N: 200}
)

// Series is the base program: the sequential kernel after the paper's
// refactoring. TestArray[0][i] holds a_i, TestArray[1][i] holds b_i.
type Series struct {
	n         int
	TestArray [2][]float64
}

// New allocates a Series base program.
func New(p Params) *Series {
	s := &Series{n: p.N}
	s.TestArray[0] = make([]float64, p.N)
	s.TestArray[1] = make([]float64, p.N)
	return s
}

// thefunction is f(x) weighted for the requested integral:
// sel 0: f(x); 1: f(x)·cos(ω·x); 2: f(x)·sin(ω·x).
func thefunction(x, omegan float64, sel int) float64 {
	fx := math.Pow(x+1, x)
	switch sel {
	case 1:
		return fx * math.Cos(omegan*x)
	case 2:
		return fx * math.Sin(omegan*x)
	default:
		return fx
	}
}

// referenceA0 computes ½∫₀²(x+1)ˣdx by composite Simpson quadrature at a
// resolution far beyond the kernel's, memoised for reuse in validation.
var refA0Cache float64

func referenceA0() float64 {
	if refA0Cache != 0 {
		return refA0Cache
	}
	const steps = 1 << 16
	hh := 2.0 / steps
	sum := thefunction(0, 0, 0) + thefunction(2, 0, 0)
	for i := 1; i < steps; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4.0
		}
		sum += w * thefunction(float64(i)*hh, 0, 0)
	}
	refA0Cache = sum * hh / 3 / 2
	return refA0Cache
}

// trapezoidIntegrate integrates thefunction over [x0,x1] with nsteps
// intervals, as the JGF kernel does.
func trapezoidIntegrate(x0, x1 float64, nsteps int, omegan float64, sel int) float64 {
	x := x0
	dx := (x1 - x0) / float64(nsteps)
	rvalue := thefunction(x0, omegan, sel) / 2
	for n := nsteps - 1; n > 0; n-- {
		x += dx
		rvalue += thefunction(x, omegan, sel)
	}
	rvalue += thefunction(x1, omegan, sel) / 2
	return rvalue * dx
}

// BuildCoeffs is the for method (M2FOR refactor) computing coefficients
// [lo,hi) with the given step: index 0 is a_0, index i>0 the (a_i, b_i)
// pair.
func (s *Series) BuildCoeffs(lo, hi, step int) {
	omega := 2 * math.Pi / 2.0 // period is [0,2]
	for i := lo; i < hi; i += step {
		if i == 0 {
			s.TestArray[0][0] = trapezoidIntegrate(0, 2, 1000, 0, 0) / 2
			continue
		}
		w := omega * float64(i)
		s.TestArray[0][i] = trapezoidIntegrate(0, 2, 1000, w, 1)
		s.TestArray[1][i] = trapezoidIntegrate(0, 2, 1000, w, 2)
	}
}

// validate checks a_0 against a high-precision reference for
// ½∫₀²(x+1)ˣdx and requires every coefficient to be finite. The kernel
// integrates with 1000 trapezoids, so the check allows its discretisation
// error. Cross-version equality is asserted separately by the test suite.
func (s *Series) validate() error {
	refA0 := referenceA0()
	if d := math.Abs(s.TestArray[0][0] - refA0); d > 1e-4 {
		return fmt.Errorf("series: a0 = %v, want %v (|Δ|=%g)", s.TestArray[0][0], refA0, d)
	}
	for j := 0; j < 2; j++ {
		for i, v := range s.TestArray[j] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("series: coefficient [%d][%d] = %v", j, i, v)
			}
		}
	}
	return nil
}

// ------------------------------------------------------------- versions --

type seqInstance struct {
	p Params
	s *Series
}

// NewSeq returns the sequential version.
func NewSeq(p Params) harness.Instance { return &seqInstance{p: p} }

func (in *seqInstance) Setup()          { in.s = New(in.p) }
func (in *seqInstance) Kernel()         { in.s.BuildCoeffs(0, in.s.n, 1) }
func (in *seqInstance) Validate() error { return in.s.validate() }

type mtInstance struct {
	p       Params
	threads int
	s       *Series
}

// NewMT returns the hand-threaded JGF-MT baseline: explicit goroutines
// with a block distribution, mirroring the Java-threads version.
func NewMT(p Params, threads int) harness.Instance {
	return &mtInstance{p: p, threads: threads}
}

func (in *mtInstance) Setup() { in.s = New(in.p) }

func (in *mtInstance) Kernel() {
	done := make(chan struct{}, in.threads)
	n := in.s.n
	for id := 0; id < in.threads; id++ {
		go func(id int) {
			// Block distribution, remainder to the leading workers.
			per, rem := n/in.threads, n%in.threads
			lo := id*per + min(id, rem)
			hi := lo + per
			if id < rem {
				hi++
			}
			in.s.BuildCoeffs(lo, hi, 1)
			done <- struct{}{}
		}(id)
	}
	for id := 0; id < in.threads; id++ {
		<-done
	}
}

func (in *mtInstance) Validate() error { return in.s.validate() }

type aompInstance struct {
	p       Params
	threads int
	s       *Series
	run     func()
	prog    *weaver.Program
}

// NewAomp returns the AOmpLib version: the same base program composed with
// a ParallelRegion and a block-scheduled ForShare aspect.
func NewAomp(p Params, threads int) harness.Instance {
	return &aompInstance{p: p, threads: threads}
}

func (in *aompInstance) Setup() {
	in.s = New(in.p)
	in.prog = weaver.NewProgram("Series")
	prog := in.prog
	cls := prog.Class("Series")
	build := cls.ForProc("buildCoeffs", in.s.BuildCoeffs)
	in.run = cls.Proc("run", func() { build(0, in.s.n, 1) })
	prog.Use(core.ParallelRegion("call(* Series.run(..))").Threads(in.threads))
	prog.Use(core.ForShare("call(* Series.buildCoeffs(..))").Schedule(in.p.Schedule))
	prog.MustWeave()
}

func (in *aompInstance) Kernel()         { in.run() }
func (in *aompInstance) Validate() error { return in.s.validate() }

type parInstance struct {
	p       Params
	threads int
	s       *Series
	opts    []parallel.Opt
}

// NewParallel returns the generic-algorithms version: the same base
// program driven by parallel.ForRange instead of woven aspects, under the
// same Params.Schedule as the Aomp version.
func NewParallel(p Params, threads int) harness.Instance {
	return &parInstance{p: p, threads: threads}
}

func (in *parInstance) Setup() {
	in.s = New(in.p)
	in.opts = []parallel.Opt{
		parallel.WithThreads(in.threads), parallel.WithSchedule(in.p.Schedule),
	}
}

func (in *parInstance) Kernel() {
	parallel.ForRange(0, in.s.n, func(lo, hi int) { in.s.BuildCoeffs(lo, hi, 1) }, in.opts...)
}

func (in *parInstance) Validate() error { return in.s.validate() }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompInstance) Program() *weaver.Program { return in.prog }
