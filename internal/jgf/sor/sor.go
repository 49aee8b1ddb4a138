// Package sor reproduces the JGF SOR benchmark: successive over-relaxation
// on an M×N grid with ω = 1.25. All versions use the red-black ordering of
// the JGF multi-threaded kernel (the sequential lexicographic ordering is
// not parallelisable), so sequential and parallel runs produce identical
// grids. The paper parallelises it with a parallel region, a
// block-scheduled for method over rows and a barrier between colour
// phases (Table 2: "PR, FOR (block), BR").
package sor

import (
	"fmt"
	"math"

	"aomplib/internal/core"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/jgfutil"
	"aomplib/internal/rng"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
	"aomplib/parallel"
)

// Params sizes the benchmark.
type Params struct {
	// M, N are the grid dimensions; Iters the number of full sweeps.
	M, N, Iters int
	// Schedule is the loop schedule of the Aomp and Parallel versions; the
	// zero value is sched.StaticBlock, the kernel's block distribution.
	Schedule sched.Kind
}

// JGF problem sizes (100 iterations over square grids).
var (
	SizeA = Params{M: 1000, N: 1000, Iters: 100}
	SizeB = Params{M: 1500, N: 1500, Iters: 100}
	// SizeTest keeps unit tests fast.
	SizeTest = Params{M: 64, N: 64, Iters: 20}
)

const omega = 1.25

// SOR is the base program.
type SOR struct {
	m, n  int
	iters int
	g     [][]float64
	// gTotal is the validation checksum (sum of all grid values).
	gTotal float64
}

// New builds the base program with a deterministic random grid.
func New(p Params) *SOR {
	s := &SOR{m: p.M, n: p.N, iters: p.Iters}
	r := rng.New(10101010)
	s.g = make([][]float64, p.M)
	for i := range s.g {
		row := make([]float64, p.N)
		for j := range row {
			row[j] = r.NextDouble() * 1e-6
		}
		s.g[i] = row
	}
	return s
}

// RelaxColor is the for method sweeping rows [lo,hi) for one colour
// (0 = red, 1 = black): within each row only points with (i+j)%2 == color
// are relaxed, so all updates of one phase are independent.
func (s *SOR) RelaxColor(lo, hi, step int, color int) {
	omegaOver4 := omega * 0.25
	oneMinusOmega := 1 - omega
	for i := lo; i < hi; i += step {
		if i < 1 || i >= s.m-1 {
			continue
		}
		gi := s.g[i]
		gim1 := s.g[i-1]
		gip1 := s.g[i+1]
		start := 1 + (i+1+color)%2
		for j := start; j < s.n-1; j += 2 {
			gi[j] = omegaOver4*(gim1[j]+gip1[j]+gi[j-1]+gi[j+1]) + oneMinusOmega*gi[j]
		}
	}
}

// Sum computes the validation checksum.
func (s *SOR) Sum() float64 {
	total := 0.0
	for i := range s.g {
		for _, v := range s.g[i] {
			total += v
		}
	}
	return total
}

func (s *SOR) validate() error {
	if math.IsNaN(s.gTotal) || s.gTotal == 0 {
		return fmt.Errorf("sor: checksum %v", s.gTotal)
	}
	return nil
}

// ------------------------------------------------------------- versions --

type seqInstance struct {
	p Params
	s *SOR
}

// NewSeq returns the sequential version.
func NewSeq(p Params) harness.Instance { return &seqInstance{p: p} }

func (in *seqInstance) Setup() { in.s = New(in.p) }
func (in *seqInstance) Kernel() {
	for it := 0; it < in.s.iters; it++ {
		in.s.RelaxColor(0, in.s.m, 1, 0)
		in.s.RelaxColor(0, in.s.m, 1, 1)
	}
	in.s.gTotal = in.s.Sum()
}
func (in *seqInstance) Validate() error { return in.s.validate() }

type mtInstance struct {
	p       Params
	threads int
	s       *SOR
}

// NewMT returns the hand-threaded baseline: persistent goroutines sweeping
// row blocks with a barrier between colour phases, as the JGF Java-threads
// kernel does.
func NewMT(p Params, threads int) harness.Instance {
	return &mtInstance{p: p, threads: threads}
}

func (in *mtInstance) Setup() { in.s = New(in.p) }

func (in *mtInstance) Kernel() {
	s := in.s
	t := in.threads
	bar := jgfutil.NewBarrier(t)
	jgfutil.Run(t, func(id int) {
		lo, hi := jgfutil.Block(s.m, t, id)
		for it := 0; it < s.iters; it++ {
			for color := 0; color < 2; color++ {
				s.RelaxColor(lo, hi, 1, color)
				bar.Wait()
			}
		}
	})
	s.gTotal = s.Sum()
}

func (in *mtInstance) Validate() error { return in.s.validate() }

type aompInstance struct {
	p       Params
	threads int
	s       *SOR
	run     func()
	prog    *weaver.Program
}

// NewAomp returns the AOmpLib version: the same base program with a
// parallel region over the sweep loop, a block-scheduled for and a barrier
// after each colour phase.
func NewAomp(p Params, threads int) harness.Instance {
	return &aompInstance{p: p, threads: threads}
}

func (in *aompInstance) Setup() {
	in.s = New(in.p)
	in.prog = weaver.NewProgram("SOR")
	prog := in.prog
	cls := prog.Class("SOR")
	red := cls.ForProc("relaxRed", func(lo, hi, step int) { in.s.RelaxColor(lo, hi, step, 0) })
	black := cls.ForProc("relaxBlack", func(lo, hi, step int) { in.s.RelaxColor(lo, hi, step, 1) })
	in.run = cls.Proc("run", func() {
		for it := 0; it < in.s.iters; it++ {
			red(0, in.s.m, 1)
			black(0, in.s.m, 1)
		}
	})
	prog.Use(core.ParallelRegion("call(* SOR.run(..))").Threads(in.threads))
	// NoWait: the explicit barrier ends each colour phase, so a dispensing
	// schedule's implicit one would be a second wait per phase.
	prog.Use(core.ForShare("call(* SOR.relax*(..))").Schedule(in.p.Schedule).NoWait())
	prog.Use(core.BarrierAfterPoint("call(* SOR.relax*(..))"))
	prog.MustWeave()
}

func (in *aompInstance) Kernel() {
	in.run()
	in.s.gTotal = in.s.Sum()
}
func (in *aompInstance) Validate() error { return in.s.validate() }

// Reseed restores the grid Setup built and keeps its woven program, so
// that repeated kernels run on one weave.
func (in *aompInstance) Reseed() { in.s = New(in.p) }

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompInstance) Program() *weaver.Program { return in.prog }

type aompDepInstance struct {
	p       Params
	threads int
	s       *SOR
	run     func()
	prog    *weaver.Program
}

// NewAompDep returns the dataflow AOmpLib version: the grid rows are
// partitioned into blocks and each colour sweep of each block becomes a
// task whose @Depend clauses tie it only to its neighbour blocks — in on
// the blocks above and below (their boundary rows are read), inout on its
// own. Blocks therefore synchronise with their neighbourhood instead of
// the whole team: a fast block may be a full colour phase ahead of a slow
// distant one, where the barrier version holds everyone at each phase.
func NewAompDep(p Params, threads int) harness.Instance {
	return &aompDepInstance{p: p, threads: threads}
}

func (in *aompDepInstance) Setup() {
	in.s = New(in.p)
	s := in.s
	nb := in.threads * 2
	if nb > s.m {
		nb = s.m
	}
	width := (s.m + nb - 1) / nb
	nb = (s.m + width - 1) / width
	tags := make([]byte, nb)

	in.prog = weaver.NewProgram("SORDF")
	prog := in.prog
	cls := prog.Class("SOR")

	sweepBlock := func(b, color int) {
		lo := b * width
		hi := lo + width
		if hi > s.m {
			hi = s.m
		}
		s.RelaxColor(lo, hi, 1, color)
	}
	red := cls.KeyedProc("redBlock", func(b int) { sweepBlock(b, 0) })
	black := cls.KeyedProc("blackBlock", func(b int) { sweepBlock(b, 1) })
	spawnAll := cls.Proc("spawnAll", func() {
		for it := 0; it < s.iters; it++ {
			for b := 0; b < nb; b++ {
				red(b)
			}
			for b := 0; b < nb; b++ {
				black(b)
			}
		}
	})
	sweep := cls.Proc("sweep", func() { spawnAll() })

	neighbourhood := core.Depend{
		In: []any{
			core.DepFn(func(b int) any {
				if b == 0 {
					return nil
				}
				return &tags[b-1]
			}),
			core.DepFn(func(b int) any {
				if b+1 >= nb {
					return nil
				}
				return &tags[b+1]
			}),
		},
		InOut: []any{core.DepFn(func(b int) any { return &tags[b] })},
	}
	prog.MustAnnotate("SOR.sweep", core.Parallel{Threads: in.threads})
	prog.MustAnnotate("SOR.spawnAll", core.Master{})
	prog.MustAnnotate("SOR.redBlock", core.Task{}, neighbourhood)
	prog.MustAnnotate("SOR.blackBlock", core.Task{}, neighbourhood)
	prog.Use(core.AnnotationAspects(prog)...)
	prog.MustWeave()
	in.run = sweep
}

func (in *aompDepInstance) Kernel() {
	in.run()
	in.s.gTotal = in.s.Sum()
}
func (in *aompDepInstance) Validate() error { return in.s.validate() }

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompDepInstance) Program() *weaver.Program { return in.prog }

type parInstance struct {
	p       Params
	threads int
	s       *SOR
	opts    []parallel.Opt
}

// NewParallel returns the generic-algorithms version: each colour phase
// of each sweep is one parallel.ForRange over the rows — the region join
// is the inter-phase barrier, where the Aomp version holds one region
// open and weaves explicit barriers. It runs under the same
// Params.Schedule as the Aomp version.
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
	s := in.s
	for it := 0; it < s.iters; it++ {
		parallel.ForRange(0, s.m, func(lo, hi int) { s.RelaxColor(lo, hi, 1, 0) }, in.opts...)
		parallel.ForRange(0, s.m, func(lo, hi int) { s.RelaxColor(lo, hi, 1, 1) }, in.opts...)
	}
	s.gTotal = s.Sum()
}

func (in *parInstance) Validate() error { return in.s.validate() }
