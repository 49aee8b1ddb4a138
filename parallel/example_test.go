package parallel_test

import (
	"fmt"

	"aomplib/parallel"
)

func ExampleFor() {
	squares := make([]int, 8)
	parallel.For(0, len(squares), func(i int) {
		squares[i] = i * i
	}, parallel.WithThreads(4))
	fmt.Println(squares)
	// Output: [0 1 4 9 16 25 36 49]
}

func ExampleForRange() {
	// The range-chunk variant: the body receives whole sub-ranges, one per
	// scheduling unit, so per-call overhead amortizes over the chunk.
	data := make([]float64, 1000)
	parallel.ForRange(0, len(data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] = float64(i) * 0.5
		}
	}, parallel.WithThreads(4), parallel.WithSchedule(parallel.Dynamic))
	fmt.Println(data[10], data[999])
	// Output: 5 499.5
}

func ExampleReduce() {
	// Sum of squares of 1..100. The combine tree is fixed by the input
	// length and grain, so the result is identical at any team width.
	sum := parallel.Reduce(1, 101, 0,
		func(lo, hi int, acc int) int {
			for i := lo; i < hi; i++ {
				acc += i * i
			}
			return acc
		},
		func(a, b int) int { return a + b },
		parallel.WithThreads(4), parallel.WithGrain(16))
	fmt.Println(sum)
	// Output: 338350
}

func ExampleSort() {
	words := []string{"pear", "apple", "fig", "date", "cherry", "banana"}
	parallel.Sort(words, func(a, b string) bool { return a < b },
		parallel.WithThreads(4), parallel.WithGrain(2))
	fmt.Println(words)
	// Output: [apple banana cherry date fig pear]
}
