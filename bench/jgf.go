package main

import (
	"fmt"

	"aomplib/internal/jgf/crypt"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/lufact"
	"aomplib/internal/jgf/moldyn"
	"aomplib/internal/jgf/montecarlo"
	"aomplib/internal/jgf/raytracer"
	"aomplib/internal/jgf/series"
	"aomplib/internal/jgf/sor"
	"aomplib/internal/jgf/sparse"
	"aomplib/internal/rt"
)

// kernel is one JGF benchmark in the versions the paper's Figure 13
// compares, plus the dataflow and generic-algorithms ports where they
// exist.
type kernel struct {
	name string
	seq  func() harness.Instance
	mt   func(t int) harness.Instance
	aomp func(t int) harness.Instance
	df   func(t int) harness.Instance // @Depend version, or nil
	par  func(t int) harness.Instance // package parallel version, or nil
}

// Kernel sizes. Each Seq sample takes about 0.1 s on the 2-vCPU reference
// box, so a round of a workload's four kernels in four versions fits ten
// times into a 16 s run. JGF size A/B samples are three times longer and
// would leave three rounds — too few for a median of paired ratios.
//
// jgf-coarse: one region and one or two work-shared loops per kernel; the
// body does all the work and the runtime O(1) of it.
func coarseKernels(quick bool) []kernel {
	sp, cp := series.Params{N: 1000}, crypt.SizeA
	mp, rp := montecarlo.Params{Runs: 4000, Steps: 1000}, raytracer.Params{Width: 340, Height: 340}
	if quick {
		sp, cp, mp, rp = series.Params{N: 40}, crypt.SizeTest, montecarlo.Params{Runs: 100, Steps: 50},
			raytracer.Params{Width: 24, Height: 24}
	}
	return []kernel{
		{name: "series", seq: func() harness.Instance { return series.NewSeq(sp) },
			mt:   func(t int) harness.Instance { return series.NewMT(sp, t) },
			aomp: func(t int) harness.Instance { return series.NewAomp(sp, t) }},
		{name: "crypt", seq: func() harness.Instance { return crypt.NewSeq(cp) },
			mt:   func(t int) harness.Instance { return crypt.NewMT(cp, t) },
			aomp: func(t int) harness.Instance { return crypt.NewAomp(cp, t) }},
		{name: "montecarlo", seq: func() harness.Instance { return montecarlo.NewSeq(mp) },
			mt:   func(t int) harness.Instance { return montecarlo.NewMT(mp, t) },
			aomp: func(t int) harness.Instance { return montecarlo.NewAomp(mp, t) }},
		{name: "raytracer", seq: func() harness.Instance { return raytracer.NewSeq(rp) },
			mt:   func(t int) harness.Instance { return raytracer.NewMT(rp, t) },
			aomp: func(t int) harness.Instance { return raytracer.NewAomp(rp, t) }},
	}
}

// jgf-sync: a barrier, fence or dependence edge per step — 700 LUFact
// columns, 60 SOR sweeps, 100 SpMVs, 8 MolDyn moves with reductions.
func syncKernels(quick bool) []kernel {
	lp, op := lufact.Params{N: 700}, sor.Params{M: 1000, N: 1000, Iters: 60}
	pp, dp := sparse.Params{N: 50_000, NZ: 250_000, Iters: 100}, moldyn.Params{MM: 8, Moves: 8}
	if quick {
		lp, op = lufact.Params{N: 48}, sor.Params{M: 48, N: 48, Iters: 6}
		pp, dp = sparse.Params{N: 300, NZ: 1500, Iters: 6}, moldyn.Params{MM: 3, Moves: 2}
	}
	return []kernel{
		{name: "lufact", seq: func() harness.Instance { return lufact.NewSeq(lp) },
			mt:   func(t int) harness.Instance { return lufact.NewMT(lp, t) },
			aomp: func(t int) harness.Instance { return lufact.NewAomp(lp, t) },
			df:   func(t int) harness.Instance { return lufact.NewAompDep(lp, t) }},
		{name: "sor", seq: func() harness.Instance { return sor.NewSeq(op) },
			mt:   func(t int) harness.Instance { return sor.NewMT(op, t) },
			aomp: func(t int) harness.Instance { return sor.NewAomp(op, t) },
			df:   func(t int) harness.Instance { return sor.NewAompDep(op, t) },
			par:  func(t int) harness.Instance { return sor.NewParallel(op, t) }},
		{name: "sparse", seq: func() harness.Instance { return sparse.NewSeq(pp) },
			mt:   func(t int) harness.Instance { return sparse.NewMT(pp, t) },
			aomp: func(t int) harness.Instance { return sparse.NewAomp(pp, t) }},
		{name: "moldyn", seq: func() harness.Instance { return moldyn.NewSeq(dp) },
			mt:   func(t int) harness.Instance { return moldyn.NewMT(dp, t) },
			aomp: func(t int) harness.Instance { return moldyn.NewAomp(dp, t, moldyn.ThreadLocalStrategy) }},
	}
}

// jgfWorkload runs a set of kernels: Seq, Aomp@1, JGF-MT@T and Aomp@T each
// round, and on detailed runs the Aomp-DF@T and Parallel@T ports.
type jgfWorkload struct {
	name string
	cs   []*cell
	// seqOf holds each kernel's most recent sequential instance, the
	// reference the parallel versions' results are compared with.
	seqOf map[string]harness.Instance
}

const (
	roleDF  = "df"
	rolePar = "par"
)

type version struct {
	role string
	inst harness.Instance
}

// newJGF is the workload's set-up: build every version of every kernel,
// generate its input once, and lease a team so the pool is warm.
func newJGF(name string, kernels []kernel, env *runEnv) *jgfWorkload {
	w := &jgfWorkload{name: name, seqOf: map[string]harness.Instance{}}
	t := env.width
	for _, k := range kernels {
		versions := []version{{roleSeq, k.seq()}, {roleSerial, k.aomp(1)}, {roleRef, k.mt(t)}, {roleLib, k.aomp(t)}}
		if env.sc.detail && k.df != nil {
			versions = append(versions, version{roleDF, k.df(t)})
		}
		if env.sc.detail && k.par != nil {
			versions = append(versions, version{rolePar, k.par(t)})
		}
		for _, v := range versions {
			v.inst.Setup()
			w.cs = append(w.cs, &cell{
				group: k.name, role: v.role,
				prep: func() { env.main.do("Setup", v.inst.Setup) },
				run:  func() { env.main.do("Kernel", v.inst.Kernel) },
				after: func() {
					env.main.begin("Validate")
					defer env.main.end()
					err := v.inst.Validate()
					env.tally.check(err == nil, "%s/%s: %v", k.name, v.role, err)
					if v.role == roleSeq {
						w.seqOf[k.name] = v.inst
						return
					}
					if seq := w.seqOf[k.name]; seq != nil {
						if msg := resultMismatch(seq, v.inst); msg != "" {
							env.tally.fail("%s/%s differs from Seq: %s", k.name, v.role, msg)
						}
					}
				},
			})
		}
	}
	rt.Region(t, func(*rt.Worker) {})
	return w
}

func (w *jgfWorkload) cells() []*cell { return w.cs }

// resultMismatch compares the results two versions expose, where the
// kernel promises them equal bit for bit: MonteCarlo's priced rate (the
// average is folded in run order in every version) and RayTracer's integer
// checksum. Other kernels are checked by Validate alone.
func resultMismatch(seq, other harness.Instance) string {
	switch a := seq.(type) {
	case interface{ Result() float64 }:
		if b, ok := other.(interface{ Result() float64 }); ok && a.Result() != b.Result() {
			return fmt.Sprintf("result %v != %v", b.Result(), a.Result())
		}
	case interface{ Checksum() int64 }:
		if b, ok := other.(interface{ Checksum() int64 }); ok && a.Checksum() != b.Checksum() {
			return fmt.Sprintf("checksum %d != %d", b.Checksum(), a.Checksum())
		}
	}
	return ""
}

// rows writes the per-kernel rows a kernel regression is read from, and
// the workload's own summary rows.
func (w *jgfWorkload) rows(st *stats, rep *report) {
	var speedups []float64
	dfSum := 0.0
	seen := map[string]bool{}
	for _, c := range w.cs {
		if seen[c.group] {
			continue
		}
		seen[c.group] = true
		k := "jgf." + c.group + "."
		rep.setSamples(k+"seq_s", st.get(c.group, roleSeq))
		rep.setSamples(k+"aomp1_s", st.get(c.group, roleSerial))
		rep.setSamples(k+"mt_s", st.get(c.group, roleRef))
		rep.setSamples(k+"aomp_s", st.get(c.group, roleLib))
		rep.set(k+"aomp_over_mt", median(pairedRatios(st.get(c.group, roleLib), st.get(c.group, roleRef))))
		if df := st.get(c.group, roleDF); len(df) > 0 {
			rep.setSamples(k+"aompdf_s", df)
			dfSum += median(df)
		}
		if par := st.get(c.group, rolePar); len(par) > 0 {
			rep.setSamples(k+"par_s", par)
		}
		speedups = append(speedups, median(pairedRatios(st.get(c.group, roleSeq), st.get(c.group, roleLib))))
	}
	rep.set(w.name+".aomp_speedup", geomean(speedups))
	if dfSum > 0 {
		rep.set(w.name+".aompdf_time_s", dfSum)
	}
}
