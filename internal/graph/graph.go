// Package graph explores the paper's stated current work: "the
// investigation of the feasibility of this approach in more irregular
// algorithms (e.g., graph based)" (§VII). It provides a CSR directed
// graph with a power-law synthetic generator, plus a PageRank kernel
// written as a sequential base program with for methods — the
// highly skewed per-vertex work is exactly the case where AOmpLib's
// pluggable scheduling policies (dynamic/guided vs static) matter.
package graph

import (
	"fmt"

	"aomplib/internal/rng"
)

// Graph is a directed graph in compressed sparse row form.
type Graph struct {
	// N is the vertex count.
	N int
	// RowStart[v]..RowStart[v+1] index Adj with v's out-neighbours.
	RowStart []int
	// Adj is the concatenated adjacency.
	Adj []int
	// OutDeg caches out-degrees (OutDeg[v] == RowStart[v+1]-RowStart[v]).
	OutDeg []int
}

// Edges returns the edge count.
func (g *Graph) Edges() int { return len(g.Adj) }

// Validate checks structural invariants.
func (g *Graph) Validate() error {
	if len(g.RowStart) != g.N+1 {
		return fmt.Errorf("graph: RowStart length %d, want %d", len(g.RowStart), g.N+1)
	}
	if g.RowStart[0] != 0 || g.RowStart[g.N] != len(g.Adj) {
		return fmt.Errorf("graph: RowStart bounds corrupt")
	}
	for v := 0; v < g.N; v++ {
		if g.RowStart[v] > g.RowStart[v+1] {
			return fmt.Errorf("graph: RowStart not monotone at %d", v)
		}
		if g.OutDeg[v] != g.RowStart[v+1]-g.RowStart[v] {
			return fmt.Errorf("graph: OutDeg[%d] inconsistent", v)
		}
	}
	for _, w := range g.Adj {
		if w < 0 || w >= g.N {
			return fmt.Errorf("graph: adjacency target %d out of range", w)
		}
	}
	return nil
}

// NewPowerLaw generates a deterministic directed graph with a skewed
// degree distribution: vertex v receives a share of the 2·avgDeg·n edge
// endpoints proportional to 1/(v+1) (a Zipf-like head), producing the
// hub-dominated row lengths that break static block scheduling.
func NewPowerLaw(n, avgDeg int, seed int64) *Graph {
	r := rng.New(seed)
	g := &Graph{N: n, RowStart: make([]int, n+1), OutDeg: make([]int, n)}
	edges := n * avgDeg
	// Zipf normalisation.
	var h float64
	for v := 1; v <= n; v++ {
		h += 1 / float64(v)
	}
	remaining := edges
	for v := 0; v < n && remaining > 0; v++ {
		share := int(float64(edges) / (float64(v+1) * h))
		if share < 1 {
			share = 1
		}
		if share > remaining {
			share = remaining
		}
		g.OutDeg[v] = share
		remaining -= share
	}
	// Any remainder lands on the tail uniformly.
	for remaining > 0 {
		g.OutDeg[int(r.NextIntN(int32(n)))]++
		remaining--
	}
	total := 0
	for v := 0; v < n; v++ {
		g.RowStart[v] = total
		total += g.OutDeg[v]
	}
	g.RowStart[n] = total
	g.Adj = make([]int, total)
	for v := 0; v < n; v++ {
		for e := g.RowStart[v]; e < g.RowStart[v+1]; e++ {
			g.Adj[e] = int(r.NextIntN(int32(n)))
		}
	}
	return g
}
