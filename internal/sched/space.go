package sched

import (
	"fmt"
	"math"
)

// Space is a half-open loop iteration space: the iterations of
//
//	for i := Lo; i < Hi; i += Step   (Step > 0)
//	for i := Lo; i > Hi; i += Step   (Step < 0)
//
// Step must be non-zero; a zero step is rejected by Validate.
type Space struct {
	Lo, Hi, Step int
}

// Validate reports an error for a malformed space: a zero step, or more
// iterations than an int counts (Count < 0).
func (s Space) Validate() error {
	switch {
	case s.Step == 0:
		return fmt.Errorf("sched: zero step in space %+v", s)
	case s.Count() < 0:
		return fmt.Errorf("sched: space %v has more than %d iterations", s, math.MaxInt)
	}
	return nil
}

// Count returns the number of iterations in the space, or -1 when that
// number exceeds math.MaxInt (Validate then errors). The bounds are
// differenced as unsigned, so no count that fits in an int wraps; a
// negative step counts as the positive one over the mirrored bounds, and
// the unit step — nearly every loop, and every chunk of one — needs no
// division. It stays small enough to inline.
func (s Space) Count() int {
	lo, hi, step := s.Lo, s.Hi, uint(s.Step)
	if s.Step < 0 {
		lo, hi, step = hi, lo, -step
	}
	if hi <= lo || step == 0 {
		return 0
	}
	n := uint(hi) - uint(lo)
	if step != 1 {
		n = (n-1)/step + 1
	}
	if n > math.MaxInt {
		return -1
	}
	return int(n)
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
