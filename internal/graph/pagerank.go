package graph

import (
	"math"

	"aomplib/internal/core"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// PageRank computes the stationary rank vector by power iteration with
// damping d: rank'[v] = (1-d)/N + d·Σ_{u→v} rank[u]/outdeg(u), using the
// pull formulation over a reversed graph so each vertex writes only its
// own slot (work-shareable without synchronisation on the vector).
type PageRank struct {
	g       *Graph
	rev     *Graph // reversed edges: rev.Adj of v lists u with u→v
	damping float64
	iters   int

	rank, next []float64
	// danglingSum accumulates rank mass of zero-out-degree vertices per
	// iteration (a thread-local reduction target in the woven version).
	danglingSum float64
	// delta is the L1 change of the last iteration (convergence metric).
	delta float64
}

// NewPageRank prepares a run over g.
func NewPageRank(g *Graph, damping float64, iters int) *PageRank {
	pr := &PageRank{g: g, rev: reverse(g), damping: damping, iters: iters}
	pr.rank = make([]float64, g.N)
	pr.next = make([]float64, g.N)
	for v := range pr.rank {
		pr.rank[v] = 1 / float64(g.N)
	}
	return pr
}

func reverse(g *Graph) *Graph {
	rev := &Graph{N: g.N, RowStart: make([]int, g.N+1), OutDeg: make([]int, g.N)}
	for _, w := range g.Adj {
		rev.OutDeg[w]++
	}
	total := 0
	for v := 0; v < g.N; v++ {
		rev.RowStart[v] = total
		total += rev.OutDeg[v]
	}
	rev.RowStart[g.N] = total
	rev.Adj = make([]int, total)
	cursor := append([]int(nil), rev.RowStart[:g.N]...)
	for u := 0; u < g.N; u++ {
		for e := g.RowStart[u]; e < g.RowStart[u+1]; e++ {
			w := g.Adj[e]
			rev.Adj[cursor[w]] = u
			cursor[w]++
		}
	}
	return rev
}

// AccumulateDangling is the for method summing the rank of dangling
// vertices in [lo,hi) into the per-thread accumulator returned by acc.
func (pr *PageRank) AccumulateDangling(lo, hi, step int, acc *float64) {
	local := 0.0
	for v := lo; v < hi; v += step {
		if pr.g.OutDeg[v] == 0 {
			local += pr.rank[v]
		}
	}
	*acc += local
}

// UpdateRanks is the pull for method over vertices [lo,hi): per-vertex
// cost is the in-degree (near-balanced on NewPowerLaw's graphs, whose
// skew is in out-degree).
func (pr *PageRank) UpdateRanks(lo, hi, step int) {
	n := float64(pr.g.N)
	base := (1-pr.damping)/n + pr.damping*pr.danglingSum/n
	for v := lo; v < hi; v += step {
		sum := 0.0
		for e := pr.rev.RowStart[v]; e < pr.rev.RowStart[v+1]; e++ {
			u := pr.rev.Adj[e]
			sum += pr.rank[u] / float64(pr.g.OutDeg[u])
		}
		pr.next[v] = base + pr.damping*sum
	}
}

// FinishIteration swaps the vectors and records the L1 delta (master
// operation between barriers in the woven version).
func (pr *PageRank) FinishIteration() {
	d := 0.0
	for v := range pr.rank {
		d += math.Abs(pr.next[v] - pr.rank[v])
	}
	pr.delta = d
	pr.rank, pr.next = pr.next, pr.rank
	pr.danglingSum = 0
}

// RunSeq executes the unwoven base program.
func (pr *PageRank) RunSeq() {
	for it := 0; it < pr.iters; it++ {
		pr.AccumulateDangling(0, pr.g.N, 1, &pr.danglingSum)
		pr.UpdateRanks(0, pr.g.N, 1)
		pr.FinishIteration()
	}
}

// Ranks returns the current rank vector (not a copy).
func (pr *PageRank) Ranks() []float64 { return pr.rank }

// Delta returns the last iteration's L1 change.
func (pr *PageRank) Delta() float64 { return pr.delta }

// Sum returns the total rank mass (should stay ≈ 1).
func (pr *PageRank) Sum() float64 {
	s := 0.0
	for _, v := range pr.rank {
		s += v
	}
	return s
}

// BuildAomp weaves the PageRank base program: one parallel region over
// the iteration loop, a thread-local dangling accumulator with reduction,
// and a for over vertices with a selectable schedule — the experiment
// knob for irregular graphs.
func BuildAomp(pr *PageRank, threads int, kind sched.Kind, chunk int) (run func(), prog *weaver.Program) {
	prog = weaver.NewProgram("PageRank")
	cls := prog.Class("PageRank")

	acc := cls.ValueProc("danglingAcc", func() any { return &pr.danglingSum })
	dangling := cls.ForProc("accumulateDangling", func(lo, hi, step int) {
		pr.AccumulateDangling(lo, hi, step, acc().(*float64))
	})
	update := cls.ForProc("updateRanks", pr.UpdateRanks)
	finish := cls.Proc("finishIteration", pr.FinishIteration)
	iterate := cls.Proc("iterate", func() {
		for it := 0; it < pr.iters; it++ {
			dangling(0, pr.g.N, 1)
			update(0, pr.g.N, 1)
			finish()
		}
	})

	tl := core.NewThreadLocal("call(* PageRank.danglingAcc(..))", "dangling").
		InitFresh(func() any { return new(float64) })
	prog.Use(core.ParallelRegion("call(* PageRank.iterate(..))").Threads(threads))
	prog.Use(core.ForShare("call(* PageRank.accumulateDangling(..))").Named("DanglingFor"))
	prog.Use(core.ForShare("call(* PageRank.updateRanks(..))").Named("UpdateFor").
		Schedule(kind).Chunk(chunk))
	prog.Use(tl)
	// The dangling partials must be merged before UpdateRanks reads them.
	prog.Use(core.ReducePoint("call(* PageRank.updateRanks(..))", tl, func(local any) {
		pr.danglingSum += *(local.(*float64))
	}))
	prog.Use(core.BarrierAfterPoint("call(* PageRank.updateRanks(..)) || call(* PageRank.finishIteration(..))"))
	prog.Use(core.MasterSection("call(* PageRank.finishIteration(..))"))
	prog.MustWeave()

	return iterate, prog
}
