// Package harness drives the Java Grande Forum (JGF) benchmark
// reproductions used in the paper's evaluation (§V): each benchmark comes
// in three versions — Seq (the refactored sequential base program), MT
// (the hand-threaded JGF multi-thread baseline) and Aomp (the same base
// program composed with AOmpLib aspect modules) — and the harness times
// them in paired rounds, validates every run and summarises per-round
// quotients, the speed-ups of Figures 13 and 15.
package harness

import (
	"fmt"
	"slices"
	"time"
)

// Instance is one configured benchmark run. Setup allocates and
// initialises data (untimed, as in JGF), Kernel is the timed section, and
// Validate checks the result afterwards.
type Instance interface {
	Setup()
	Kernel()
	Validate() error
}

// Version labels the three implementations compared in Figure 13.
type Version string

// Version labels. AompDep is the dataflow (@Depend) variant of an Aomp
// version, where barrier fences are replaced by task dependence edges;
// Par is the same kernel expressed through the generic algorithms layer
// (package parallel) instead of woven aspects, benchmarked so the layer's
// dispatch cost is measured against the hand-woven @For baseline.
const (
	Seq     Version = "Seq"
	MT      Version = "JGF-MT"
	Aomp    Version = "Aomp"
	AompDep Version = "Aomp-DF"
	Par     Version = "Parallel"
)

// Variant is one version of a kernel at one team size, timed by Rounds.
type Variant struct {
	Version Version
	Threads int
	Inst    Instance
}

// Measurement is a variant's record over all rounds: Seconds holds one
// Kernel time per round, in round order, and Err the first Validate
// failure (nil when every round validated).
type Measurement struct {
	Version Version
	Threads int
	Seconds []float64
	Err     error
}

// Rounds times one kernel's variants in rounds paired rounds: each round
// runs every variant once, starting at variant r mod len(variants) so no
// variant always follows the same neighbour, and each timed Kernel has an
// untimed Setup before it and an untimed Validate after it. Host drift
// thus lands on every variant of a round alike, and the per-round
// quotients (Quotients) cancel it. The result is in variants' order.
func Rounds(variants []Variant, rounds int) []Measurement {
	out := make([]Measurement, len(variants))
	for i, v := range variants {
		out[i] = Measurement{Version: v.Version, Threads: v.Threads, Seconds: make([]float64, rounds)}
	}
	for r := 0; r < rounds; r++ {
		for k := range variants {
			i := (r + k) % len(variants)
			in := variants[i].Inst
			in.Setup()
			start := time.Now()
			in.Kernel()
			out[i].Seconds[r] = time.Since(start).Seconds()
			if err := in.Validate(); err != nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// Quotient summarises the per-round quotients a[r]/b[r] of two variants
// timed in the same rounds: their median and quartiles (linear
// interpolation between order statistics, so an even count's median is
// the mean of the middle two).
type Quotient struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
}

// Quotients pairs a and b by round and summarises a[r]/b[r]. Seq's
// seconds over a variant's are that variant's speed-up; Aomp's over
// JGF-MT's are the paper's "less than 1%" difference. Rounds past the
// shorter slice are ignored.
func Quotients(a, b []float64) Quotient {
	n := min(len(a), len(b))
	if n == 0 {
		return Quotient{}
	}
	q := make([]float64, n)
	for r := range q {
		q[r] = a[r] / b[r]
	}
	slices.Sort(q)
	at := func(p float64) float64 {
		pos := p * float64(n-1)
		lo := int(pos)
		if lo == n-1 {
			return q[lo]
		}
		return q[lo] + (pos-float64(lo))*(q[lo+1]-q[lo])
	}
	return Quotient{Median: at(0.5), P25: at(0.25), P75: at(0.75)}
}

// Text formats q as "median (P25–P75)" with prec decimals, a table cell.
func (q Quotient) Text(prec int) string {
	return fmt.Sprintf("%.*f (%.*f–%.*f)", prec, q.Median, prec, q.P25, prec, q.P75)
}
