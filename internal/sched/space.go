package sched

import "fmt"

// Space is a half-open loop iteration space: the iterations of
//
//	for i := Lo; i < Hi; i += Step   (Step > 0)
//	for i := Lo; i > Hi; i += Step   (Step < 0)
//
// Step must be non-zero; a zero step is rejected by Validate.
type Space struct {
	Lo, Hi, Step int
}

// Validate reports an error for a malformed space (zero step).
func (s Space) Validate() error {
	if s.Step == 0 {
		return fmt.Errorf("sched: zero step in space %+v", s)
	}
	return nil
}

// Count returns the number of iterations in the space. The unit step —
// nearly every loop, and every chunk of one — is answered without a division.
func (s Space) Count() int {
	switch {
	case s.Step == 1:
		return max(s.Hi-s.Lo, 0)
	case s.Step > 0:
		if s.Hi <= s.Lo {
			return 0
		}
		return (s.Hi - s.Lo + s.Step - 1) / s.Step
	case s.Step < 0:
		if s.Hi >= s.Lo {
			return 0
		}
		return (s.Lo - s.Hi + (-s.Step) - 1) / (-s.Step)
	default:
		return 0
	}
}

// At returns the loop value of the idx-th iteration (0-based). It does not
// bounds-check; callers derive idx from Count.
func (s Space) At(idx int) int { return s.Lo + idx*s.Step }

// Slice returns the sub-space covering iteration indices [from, to) of s,
// preserving the step. from and to are clamped to [0, Count].
func (s Space) Slice(from, to int) Space {
	n := s.Count()
	if from < 0 {
		from = 0
	}
	if to > n {
		to = n
	}
	if from >= to {
		return Space{Lo: s.Lo, Hi: s.Lo, Step: s.Step}
	}
	if s.Step == 1 {
		return Space{Lo: s.Lo + from, Hi: s.Lo + to, Step: 1}
	}
	return Space{Lo: s.At(from), Hi: s.At(to-1) + sign(s.Step), Step: s.Step}
}

// Split partitions the space into at most n balanced sub-spaces that
// together cover every iteration exactly once (block sizes differ by at
// most one; empty sub-spaces are omitted, so fewer than n parts are
// returned when the space has fewer than n iterations). It is the building
// block for taskloop-style decompositions — each part can be spawned as a
// deferred task and load-balanced by work stealing — and for custom
// schedules.
func (s Space) Split(n int) []Space {
	if n < 1 {
		n = 1
	}
	total := s.Count()
	if total == 0 {
		return nil
	}
	if n > total {
		n = total
	}
	out := make([]Space, 0, n)
	for id := 0; id < n; id++ {
		sub := Block(s, n, id)
		if sub.Count() > 0 {
			out = append(out, sub)
		}
	}
	return out
}

// SplitGrain partitions the space into balanced sub-spaces of at least
// grain iterations each (the last may round up: parts hold between grain
// and 2·grain-1 iterations, OpenMP taskloop grainsize semantics). A space
// smaller than grain yields a single part. It is the @TaskLoop(grainsize)
// decomposition primitive.
func (s Space) SplitGrain(grain int) []Space {
	if grain < 1 {
		grain = 1
	}
	n := s.Count() / grain
	if n < 1 {
		n = 1
	}
	return s.Split(n)
}

// SplitWeighted partitions the space into len(weights) contiguous
// sub-spaces sized proportionally to the weights, together covering every
// iteration exactly once. It is the weighted analogue of Split for
// asymmetry-aware decomposition: weight w_i buys part i approximately
// n·w_i/Σw iterations (cut points are rounded, so sizes differ from the
// ideal by at most one). Non-finite or non-positive weights, or a
// non-positive sum, fall back to the balanced Split. Unlike Split, empty
// sub-spaces are kept so part i always belongs to worker i.
func (s Space) SplitWeighted(weights []float64) []Space {
	nw := len(weights)
	if nw == 0 {
		return nil
	}
	cuts := weightedCuts(s.Count(), nw, weights)
	out := make([]Space, nw)
	for id := 0; id < nw; id++ {
		out[id] = s.Slice(cuts[id], cuts[id+1])
	}
	return out
}

// weightedCuts computes the nw+1 iteration-index boundaries of a weighted
// contiguous partition of n iterations: part i covers [cuts[i], cuts[i+1]).
// Cut i is the rounded cumulative share n·(w_0+…+w_{i-1})/Σw, clamped to
// be monotone, so the partition is exact and deterministic for given
// inputs. Unusable weights (nil, wrong length, any non-finite or
// non-positive value, or a non-positive sum) yield the balanced
// StaticBlock cuts.
func weightedCuts(n, nw int, weights []float64) []int {
	cuts := make([]int, nw+1)
	var sum float64
	usable := len(weights) == nw
	for _, w := range weights {
		if !(w > 0) || w > 1e300 { // catches NaN, ±Inf, zero, negatives
			usable = false
			break
		}
		sum += w
	}
	if !usable || !(sum > 0) {
		// Balanced fallback: the StaticBlock partition (remainders spread
		// from worker 0), expressed as cut points.
		per, rem := n/nw, n%nw
		for id := 0; id < nw; id++ {
			size := per
			if id < rem {
				size++
			}
			cuts[id+1] = cuts[id] + size
		}
		return cuts
	}
	var cum float64
	for id := 0; id < nw; id++ {
		cum += weights[id]
		c := int(float64(n)*(cum/sum) + 0.5)
		if c < cuts[id] {
			c = cuts[id]
		}
		if c > n {
			c = n
		}
		cuts[id+1] = c
	}
	cuts[nw] = n
	return cuts
}

// Values expands the space into the explicit list of loop values.
// Intended for tests and small spaces only.
func (s Space) Values() []int {
	n := s.Count()
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = s.At(i)
	}
	return out
}

func sign(x int) int {
	if x < 0 {
		return -1
	}
	return 1
}

// String implements fmt.Stringer for diagnostics and weave reports.
func (s Space) String() string {
	return fmt.Sprintf("[%d,%d;%d)", s.Lo, s.Hi, s.Step)
}
