package graph

import (
	"math"
	"testing"
	"testing/quick"

	"aomplib/internal/sched"
)

func TestPowerLawStructure(t *testing.T) {
	g := NewPowerLaw(500, 8, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() < 500*8 {
		t.Fatalf("edges = %d, want ≥ %d", g.Edges(), 500*8)
	}
	// Skew: the top vertex must carry far more than the average degree.
	if g.OutDeg[0] < 4*8 {
		t.Fatalf("hub degree %d not skewed", g.OutDeg[0])
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	a := NewPowerLaw(200, 4, 99)
	b := NewPowerLaw(200, 4, 99)
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestGridStructure(t *testing.T) {
	g := NewGrid(10)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 100 {
		t.Fatalf("n = %d", g.N)
	}
	// Interior vertices have degree 4, corners 2.
	if g.OutDeg[0] != 2 || g.OutDeg[11] != 4 {
		t.Fatalf("grid degrees wrong: corner %d, interior %d", g.OutDeg[0], g.OutDeg[11])
	}
	if g.Edges() != 2*2*10*9 {
		t.Fatalf("grid edges = %d, want %d", g.Edges(), 2*2*10*9)
	}
}

// Property: generated graphs always validate, for any size/degree/seed.
func TestGeneratorValidityProperty(t *testing.T) {
	f := func(n uint8, deg uint8, seed int16) bool {
		g := NewPowerLaw(int(n%64)+2, int(deg%8)+1, int64(seed))
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReversePreservesEdges(t *testing.T) {
	g := NewPowerLaw(100, 4, 3)
	rev := reverse(g)
	if rev.Edges() != g.Edges() {
		t.Fatalf("reverse edges %d != %d", rev.Edges(), g.Edges())
	}
	if err := rev.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every edge u→w appears as w←u.
	type edge struct{ u, w int }
	fwd := map[edge]int{}
	for u := 0; u < g.N; u++ {
		for e := g.RowStart[u]; e < g.RowStart[u+1]; e++ {
			fwd[edge{u, g.Adj[e]}]++
		}
	}
	for w := 0; w < rev.N; w++ {
		for e := rev.RowStart[w]; e < rev.RowStart[w+1]; e++ {
			key := edge{rev.Adj[e], w}
			if fwd[key] == 0 {
				t.Fatalf("reversed edge %v missing forward", key)
			}
			fwd[key]--
		}
	}
}

func TestPageRankMassConserved(t *testing.T) {
	g := NewPowerLaw(400, 6, 11)
	pr := NewPageRank(g, 0.85, 30)
	pr.RunSeq()
	if s := pr.Sum(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("rank mass = %v, want 1", s)
	}
	if pr.Delta() > 0.05 {
		t.Fatalf("power iteration not converging: delta %v", pr.Delta())
	}
}

func TestPageRankHubRanksHigh(t *testing.T) {
	// On the power-law graph, the hub (vertex 0) receives many in-links
	// via random targets? In-links are uniform; instead verify on a star:
	// centre of a star graph out-ranks the leaves.
	side := 31
	star := &Graph{N: side + 1, RowStart: make([]int, side+2), OutDeg: make([]int, side+1)}
	var adj []int
	// every leaf points at vertex 0
	star.RowStart[0] = 0 // vertex 0 has no out-edges
	for v := 1; v <= side; v++ {
		star.RowStart[v] = len(adj)
		adj = append(adj, 0)
		star.OutDeg[v] = 1
	}
	star.RowStart[side+1] = len(adj)
	star.Adj = adj
	if err := star.Validate(); err != nil {
		t.Fatal(err)
	}
	pr := NewPageRank(star, 0.85, 40)
	pr.RunSeq()
	for v := 1; v <= side; v++ {
		if pr.Ranks()[0] <= pr.Ranks()[v] {
			t.Fatalf("star centre rank %v not above leaf %v", pr.Ranks()[0], pr.Ranks()[v])
		}
	}
}

func TestAompMatchesSequentialAllSchedules(t *testing.T) {
	g := NewPowerLaw(600, 5, 21)
	ref := NewPageRank(g, 0.85, 15)
	ref.RunSeq()

	for _, cfg := range []struct {
		kind  sched.Kind
		chunk int
	}{
		{sched.StaticBlock, 0},
		{sched.StaticCyclic, 0},
		{sched.Dynamic, 16},
		{sched.Guided, 4},
	} {
		pr := NewPageRank(g, 0.85, 15)
		run, _ := BuildAomp(pr, 3, cfg.kind, cfg.chunk)
		run()
		for v := range ref.Ranks() {
			if math.Abs(pr.Ranks()[v]-ref.Ranks()[v]) > 1e-12 {
				t.Fatalf("%v: rank[%d] = %v, want %v", cfg.kind, v, pr.Ranks()[v], ref.Ranks()[v])
			}
		}
		if s := pr.Sum(); math.Abs(s-1) > 1e-9 {
			t.Fatalf("%v: mass %v", cfg.kind, s)
		}
	}
}

func TestDanglingMassHandled(t *testing.T) {
	// Two vertices: 0→1, 1 dangling. Without dangling redistribution the
	// mass leaks; with it, sum stays 1.
	g := &Graph{N: 2, RowStart: []int{0, 1, 1}, Adj: []int{1}, OutDeg: []int{1, 0}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	pr := NewPageRank(g, 0.85, 50)
	pr.RunSeq()
	if s := pr.Sum(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("dangling mass leaked: sum %v", s)
	}
}

func TestGridPageRankUniform(t *testing.T) {
	// On a symmetric 4-regular torus ranks would be uniform; on a grid,
	// interior symmetry still forces the centre ranks to match.
	g := NewGrid(9)
	pr := NewPageRank(g, 0.85, 60)
	pr.RunSeq()
	c1 := pr.Ranks()[4*9+4] // centre
	c2 := pr.Ranks()[4*9+4]
	if c1 != c2 {
		t.Fatal("unstable")
	}
	// Mirror symmetry: (1,1) vs (7,7).
	a, b := pr.Ranks()[1*9+1], pr.Ranks()[7*9+7]
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("symmetric vertices differ: %v vs %v", a, b)
	}
}

// NewGrid generates an n×n grid graph (4-neighbourhood): a regular graph
// whose structure the tests can check by hand.
func NewGrid(side int) *Graph {
	n := side * side
	g := &Graph{N: n, RowStart: make([]int, n+1), OutDeg: make([]int, n)}
	var adj []int
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := at(r, c)
			g.RowStart[v] = len(adj)
			if r > 0 {
				adj = append(adj, at(r-1, c))
			}
			if r < side-1 {
				adj = append(adj, at(r+1, c))
			}
			if c > 0 {
				adj = append(adj, at(r, c-1))
			}
			if c < side-1 {
				adj = append(adj, at(r, c+1))
			}
			g.OutDeg[v] = len(adj) - g.RowStart[v]
		}
	}
	g.RowStart[n] = len(adj)
	g.Adj = adj
	return g
}
