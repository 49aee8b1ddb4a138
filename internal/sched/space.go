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
