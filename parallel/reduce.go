package parallel

import (
	"aomplib/internal/rt"
	"aomplib/internal/sched"
)

// reduceEntry is the pooled region argument of a Reduce[T] call; one pool
// per instantiated T (see poolOf).
type reduceEntry[T any] struct {
	cfg      config
	lo, hi   int
	grain    int
	kind     sched.Kind
	key      any // encounter key: e itself, or a stable loopKey for Adaptive
	identity T
	leaf     func(lo, hi int, acc T) T
	partials []T
	// body/span cache the instantiated generic func values: materializing
	// one inside Reduce[T] builds a dictionary closure at runtime (one
	// 16-byte allocation per value), so they are built once per pooled
	// entry and reused, which is what keeps steady-state dispatch at
	// 0 allocs/op.
	body func(*rt.Worker, any)
	span rt.SpanFunc
}

// Reduce folds [lo, hi) in parallel: leaf(clo, chi, identity) computes the
// partial result of one chunk, and combine merges two partials. The input
// is cut into fixed chunks of WithGrain length (default: derived from the
// input length only), the chunk index space is distributed over the team
// under WithSchedule, and the partials are merged in a fixed binary tree
// over chunk indices.
//
// Determinism: the chunk boundaries and the combine tree depend only on
// (hi-lo, grain) — never on the team width or execution order — so for a
// given input the same combine calls happen in the same association at
// every width, including width 1 and widths larger than the input. The
// result equals the sequential fold exactly when combine is associative
// with identity as a true identity element; for non-associative
// floating-point sums it is still bit-reproducible run-to-run.
//
// leaf and combine may run concurrently on distinct chunks; combine runs
// single-threaded during the final merge. Inside an existing parallel
// region the chunks are evaluated serially on the caller (same shape,
// no nested region).
func Reduce[T any](lo, hi int, identity T, leaf func(lo, hi int, acc T) T, combine func(a, b T) T, opts ...Opt) T {
	n := hi - lo
	if n <= 0 {
		return identity
	}
	pool := poolOf[reduceEntry[T]]()
	e := pool.Get().(*reduceEntry[T])
	if e.body == nil {
		e.body = reduceBody[T]
		e.span = reduceSpan[T]
	}
	applyInto(&e.cfg, opts)
	grain := e.cfg.grain
	if grain < 1 {
		grain = sched.AutoGrain(n)
	}
	chunks := (n + grain - 1) / grain
	e.lo, e.hi, e.grain, e.identity, e.leaf = lo, hi, grain, identity, leaf
	if cap(e.partials) < chunks {
		e.partials = make([]T, chunks)
	} else {
		e.partials = e.partials[:chunks]
	}

	width := e.cfg.width(chunks)
	if width <= 1 || chunks == 1 || rt.Current() != nil {
		// Serial (or nested) path: same chunking, same tree, one goroutine —
		// this is what makes the result width-independent.
		reduceSpan[T](sched.Space{Lo: 0, Hi: chunks, Step: 1}, e)
	} else {
		e.kind = sched.Resolve(e.cfg.sched, chunks, width)
		e.key = e
		if e.kind == sched.Adaptive {
			// Key the learning by the leaf's code location — pooled entries
			// are recycled between unrelated reductions.
			e.key = stableKey(leaf)
		}
		rt.RegionArg(width, e.body, e)
	}

	res := treeCombine(e.partials, combine)
	var zero T
	e.leaf = nil
	for i := range e.partials {
		e.partials[i] = zero
	}
	pool.Put(e)
	return res
}

// reduceBody is the region body of Reduce: the team work-shares the chunk
// index space, each worker filling the partials of its assigned chunks.
func reduceBody[T any](w *rt.Worker, arg any) {
	e := arg.(*reduceEntry[T])
	rt.ForSpan(w, sched.Space{Lo: 0, Hi: len(e.partials), Step: 1}, e.kind, e.key, 1, e.span, arg)
}

// reduceSpan evaluates the leaf over one dispensed range of chunk indices.
func reduceSpan[T any](sub sched.Space, arg any) {
	e := arg.(*reduceEntry[T])
	n := sub.Count()
	for i := 0; i < n; i++ {
		k := sub.At(i)
		clo := e.lo + k*e.grain
		chi := clo + e.grain
		if chi > e.hi {
			chi = e.hi
		}
		e.partials[k] = e.leaf(clo, chi, e.identity)
	}
}

// treeCombine merges partials pairwise in a fixed binary tree over chunk
// indices (stride 1, 2, 4, ...). For an associative combine the result
// equals the left-to-right fold; the fixed shape is what Reduce's
// determinism guarantee rests on.
func treeCombine[T any](partials []T, combine func(a, b T) T) T {
	n := len(partials)
	for stride := 1; stride < n; stride *= 2 {
		for i := 0; i+stride < n; i += 2 * stride {
			partials[i] = combine(partials[i], partials[i+stride])
		}
	}
	return partials[0]
}
