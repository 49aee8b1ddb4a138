// Package montecarlo reproduces the JGF MonteCarlo benchmark: a financial
// simulation pricing a product by generating thousands of stochastic rate
// paths. The original derives drift and volatility from a historical rate
// file shipped with the suite; that file is proprietary to the suite, so
// this reproduction synthesises an equivalent historical path with the
// same generator family and fits the same log-return estimators — the
// workload (per-path geometric Brownian walk) is identical (DESIGN.md §2).
//
// Every Monte Carlo run k draws its own generator seeded seed+k, exactly
// as the JGF code does, so run results are identical no matter which
// thread executes them — runs are distributed cyclically (Table 2:
// "PR, FOR (cyclic)").
package montecarlo

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
	// Runs is the number of Monte Carlo paths, Steps the walk length.
	Runs, Steps int
}

// JGF problem sizes (A: 10000 runs over 1000 time steps).
var (
	SizeA = Params{Runs: 10_000, Steps: 1_000}
	SizeB = Params{Runs: 60_000, Steps: 1_000}
	// SizeTest keeps unit tests fast.
	SizeTest = Params{Runs: 400, Steps: 100}
)

const (
	baseSeed  = 10_000
	startRate = 0.1
	dt        = 1.0 / 365.0
)

// MonteCarlo is the base program.
type MonteCarlo struct {
	runs, steps int
	mu, sigma   float64
	results     []float64
	avg         float64
}

// New builds the base program: synthesises the historical path and fits
// the drift and volatility estimators used by all runs.
func New(p Params) *MonteCarlo {
	mc := &MonteCarlo{runs: p.Runs, steps: p.Steps, results: make([]float64, p.Runs)}
	// Synthetic historical rate path (the suite's hitData substitute).
	r := rng.New(baseSeed - 1)
	const histLen = 1000
	rate := startRate
	logret := make([]float64, 0, histLen)
	for i := 0; i < histLen; i++ {
		next := rate * math.Exp(0.0001+0.1*math.Sqrt(dt)*r.NextGaussian())
		logret = append(logret, math.Log(next/rate))
		rate = next
	}
	// Standard estimators: mean and variance of log returns.
	var mean float64
	for _, v := range logret {
		mean += v
	}
	mean /= float64(len(logret))
	var variance float64
	for _, v := range logret {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(logret) - 1)
	mc.sigma = math.Sqrt(variance / dt)
	mc.mu = mean/dt + 0.5*mc.sigma*mc.sigma
	return mc
}

// RunPath executes Monte Carlo run k: a geometric Brownian walk seeded
// seed+k whose mean rate is the run's result (disjoint writes per run).
func (mc *MonteCarlo) RunPath(k int) {
	r := rng.New(rng.UpdateSeed(baseSeed, k))
	drift := (mc.mu - 0.5*mc.sigma*mc.sigma) * dt
	volStep := mc.sigma * math.Sqrt(dt)
	rate := startRate
	sum := 0.0
	for s := 0; s < mc.steps; s++ {
		rate *= math.Exp(drift + volStep*r.NextGaussian())
		sum += rate
	}
	mc.results[k] = sum / float64(mc.steps)
}

// RunPaths is the cyclic for method over run indices [lo,hi).
func (mc *MonteCarlo) RunPaths(lo, hi, step int) {
	for k := lo; k < hi; k += step {
		mc.RunPath(k)
	}
}

// Average folds the per-run results (done once, after the parallel loop,
// in deterministic order so all versions agree bit-for-bit).
func (mc *MonteCarlo) Average() {
	sum := 0.0
	for _, v := range mc.results {
		sum += v
	}
	mc.avg = sum / float64(mc.runs)
}

// Result returns the priced average rate.
func (mc *MonteCarlo) Result() float64 { return mc.avg }

func (mc *MonteCarlo) validate() error {
	if math.IsNaN(mc.avg) || mc.avg <= 0 {
		return fmt.Errorf("montecarlo: degenerate result %v", mc.avg)
	}
	// The expected rate must stay within an order of magnitude of the
	// start rate for these drift parameters.
	if mc.avg < startRate/10 || mc.avg > startRate*10 {
		return fmt.Errorf("montecarlo: result %v implausible for start %v", mc.avg, startRate)
	}
	return nil
}

// ------------------------------------------------------------- versions --

type seqInstance struct {
	p  Params
	mc *MonteCarlo
}

// NewSeq returns the sequential version.
func NewSeq(p Params) harness.Instance { return &seqInstance{p: p} }

func (in *seqInstance) Setup() { in.mc = New(in.p) }
func (in *seqInstance) Kernel() {
	in.mc.RunPaths(0, in.mc.runs, 1)
	in.mc.Average()
}
func (in *seqInstance) Validate() error { return in.mc.validate() }

// Result exposes the priced value for cross-version tests.
func (in *seqInstance) Result() float64 { return in.mc.Result() }

type mtInstance struct {
	p       Params
	threads int
	mc      *MonteCarlo
}

// NewMT returns the hand-threaded baseline with a cyclic run distribution.
func NewMT(p Params, threads int) harness.Instance {
	return &mtInstance{p: p, threads: threads}
}

func (in *mtInstance) Setup() { in.mc = New(in.p) }
func (in *mtInstance) Kernel() {
	jgfutil.Run(in.threads, func(id int) {
		in.mc.RunPaths(id, in.mc.runs, in.threads)
	})
	in.mc.Average()
}
func (in *mtInstance) Validate() error { return in.mc.validate() }

// Result exposes the priced value for cross-version tests.
func (in *mtInstance) Result() float64 { return in.mc.Result() }

type aompInstance struct {
	p       Params
	threads int
	mc      *MonteCarlo
	run     func()
	prog    *weaver.Program
}

// NewAomp returns the AOmpLib version: parallel region + cyclic for, with
// the final averaging as a master operation after a barrier.
func NewAomp(p Params, threads int) harness.Instance {
	return &aompInstance{p: p, threads: threads}
}

func (in *aompInstance) Setup() {
	in.mc = New(in.p)
	in.prog = weaver.NewProgram("MonteCarlo")
	prog := in.prog
	cls := prog.Class("MonteCarlo")
	paths := cls.ForProc("runPaths", in.mc.RunPaths)
	avg := cls.Proc("average", in.mc.Average)
	in.run = cls.Proc("run", func() {
		paths(0, in.mc.runs, 1)
		avg()
	})
	prog.Use(core.ParallelRegion("call(* MonteCarlo.run(..))").Threads(in.threads))
	prog.Use(core.ForShare("call(* MonteCarlo.runPaths(..))").Schedule(sched.StaticCyclic))
	prog.Use(core.BarrierAfterPoint("call(* MonteCarlo.runPaths(..))"))
	prog.Use(core.MasterSection("call(* MonteCarlo.average(..))"))
	prog.MustWeave()
}

func (in *aompInstance) Kernel()         { in.run() }
func (in *aompInstance) Validate() error { return in.mc.validate() }

// Result exposes the priced value for cross-version tests.
func (in *aompInstance) Result() float64 { return in.mc.Result() }

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompInstance) Program() *weaver.Program { return in.prog }
