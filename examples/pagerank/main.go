// PageRank on a power-law graph: the paper's "irregular algorithms"
// extension (§VII current work).
//
// Per-vertex work in the pull-style update is proportional to in-degree.
// The generator skews out-degrees only and picks edge targets uniformly,
// so in-degrees, and the work per vertex, are near-balanced. This example
// runs the same base program under all four schedules, verifies the ranks
// are identical, and prints the timings side by side.
//
// Run with:
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"aomplib/internal/graph"
	"aomplib/internal/sched"
)

func main() {
	const (
		vertices = 30_000
		avgDeg   = 12
		iters    = 20
		damping  = 0.85
	)
	g := graph.NewPowerLaw(vertices, avgDeg, 2013)
	fmt.Printf("power-law graph: %d vertices, %d edges, hub degree %d\n\n",
		g.N, g.Edges(), g.OutDeg[0])

	ref := graph.NewPageRank(g, damping, iters)
	start := time.Now()
	ref.RunSeq()
	fmt.Printf("%-24s Σrank %.9f  Δ %.3e  in %v\n",
		"sequential", ref.Sum(), ref.Delta(), time.Since(start).Round(time.Millisecond))

	threads := runtime.GOMAXPROCS(0)
	schedules := []struct {
		name  string
		kind  sched.Kind
		chunk int
	}{
		{"staticBlock", sched.StaticBlock, 0},
		{"staticCyclic", sched.StaticCyclic, 0},
		{"dynamic(64)", sched.Dynamic, 64},
		{"guided", sched.Guided, 16},
	}
	for _, s := range schedules {
		pr := graph.NewPageRank(g, damping, iters)
		run, _ := graph.BuildAomp(pr, threads, s.kind, s.chunk)
		start = time.Now()
		run()
		maxErr := 0.0
		for v := range pr.Ranks() {
			if d := math.Abs(pr.Ranks()[v] - ref.Ranks()[v]); d > maxErr {
				maxErr = d
			}
		}
		fmt.Printf("%-24s Σrank %.9f  maxΔ vs seq %.1e  in %v\n",
			fmt.Sprintf("aspects: %s", s.name), pr.Sum(), maxErr,
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\nthe schedule is an aspect parameter — the base PageRank never changes")
}
