package parallel_test

import (
	"testing"

	"aomplib/parallel"
)

// The CI-gated dispatch benchmarks: steady-state For/Reduce entry must be
// 0 allocs/op — pooled region arguments on warm hot-team entry, same
// standard the facade's Overhead_RegionEntry gate holds dispatch to.
// Bodies write through a package sink so the loop is not optimized away.

var benchSink = make([]int64, 4096)

var benchOpts = []parallel.Opt{parallel.WithThreads(4)}

func BenchmarkOverhead_ParallelFor(b *testing.B) {
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			benchSink[i]++
		}
	}
	parallel.ForRange(0, len(benchSink), body, benchOpts...) // warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel.ForRange(0, len(benchSink), body, benchOpts...)
	}
}

func BenchmarkOverhead_ParallelForIndex(b *testing.B) {
	body := func(i int) { benchSink[i]++ }
	parallel.For(0, len(benchSink), body, benchOpts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel.For(0, len(benchSink), body, benchOpts...)
	}
}

func BenchmarkOverhead_ParallelReduce(b *testing.B) {
	leaf := func(lo, hi int, acc int64) int64 {
		for i := lo; i < hi; i++ {
			acc += benchSink[i]
		}
		return acc
	}
	combine := func(x, y int64) int64 { return x + y }
	var res int64
	res = parallel.Reduce(0, len(benchSink), int64(0), leaf, combine, benchOpts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = parallel.Reduce(0, len(benchSink), int64(0), leaf, combine, benchOpts...)
	}
	benchSink[0] = res
}

func BenchmarkParallelForSteal(b *testing.B) {
	opts := []parallel.Opt{
		parallel.WithThreads(4), parallel.WithSchedule(parallel.Steal), parallel.WithGrain(64),
	}
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			benchSink[i]++
		}
	}
	parallel.ForRange(0, len(benchSink), body, opts...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallel.ForRange(0, len(benchSink), body, opts...)
	}
}
