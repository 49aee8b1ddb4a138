// Algorithms: the generic parallel layer end to end, no weaving.
//
// Where the other examples register joinpoints and plug aspects in, this
// one uses aomplib/parallel directly — the oneTBB-style "specify tasks,
// not threads" face of the same runtime. It walks a tiny signal through
// the whole surface: For to generate, Reduce for a deterministic
// statistic and Sort for an order statistic. Everything runs on the
// hot-team pool and shows up in traces exactly like woven @For loops.
//
// Run with:
//
//	go run ./examples/algorithms
package main

import (
	"fmt"
	"math"

	"aomplib/parallel"
)

const n = 1 << 16

func main() {
	// For: data-parallel fill. The schedule is pluggable; steal handles
	// the skewed per-index cost of the sin/exp mix gracefully.
	xs := make([]float64, n)
	parallel.For(0, n, func(i int) {
		x := float64(i) / n
		xs[i] = math.Sin(13*x) * math.Exp(-x)
	}, parallel.WithSchedule(parallel.Steal))

	// Reduce: the combine tree is fixed by the input length, so this
	// float sum is bit-identical at every team width.
	sum := parallel.Reduce(0, n, 0.0,
		func(lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				acc += xs[i]
			}
			return acc
		},
		func(a, b float64) float64 { return a + b })
	fmt.Printf("mean %.6f\n", sum/n)

	// Sort: order statistics without a full sequential sort.
	sorted := append([]float64(nil), xs...)
	parallel.Sort(sorted, func(a, b float64) bool { return a < b })
	fmt.Printf("median %.6f\n", sorted[n/2])
}
