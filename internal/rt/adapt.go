package rt

import (
	"math"
	"runtime"
	"sync/atomic"

	"aomplib/internal/sched"
)

// This file holds the feedback-aware half of loop scheduling: the
// per-construct adaptive state behind sched.Adaptive (the shape rule on
// first sight, measured imbalance afterwards).

// Adaptation thresholds on the imbalance ratio (slowest worker's share
// time over the mean). Above adaptImbHigh the encounter wasted >25% of the
// team at the implicit barrier — rebalance harder; below adaptImbLow the
// loop is effectively balanced — spend the headroom on cheaper (coarser)
// dispatch. The band between is hysteresis: oscillating between policies
// every encounter would forfeit both benefits.
const (
	adaptImbHigh = 1.25
	adaptImbLow  = 1.08
)

// shapeGuidedMin is the per-worker trip count from which a loop seen for
// the first time is dispensed guided: below it the loop is too short for
// chunk dispensing to pay for the balancing it buys.
const shapeGuidedMin = 64

// adaptDefaultChunk picks the steal-chunk size for an adaptively scheduled
// loop: 8 chunks per worker balances steal granularity (a thief can take
// meaningful work) against dispatch cost.
func adaptDefaultChunk(n, nthreads int) int { return max(1, n/(nthreads*8)) }

// loopAdapt is the persistent adaptive state of one for construct on one
// team, held in the construct's record: the schedule it resolved to last,
// and the imbalance that encounter measured. kind/chunk/count/rounds are
// touched only while an encounter initialises (forShared.init, one at a
// time per construct); imb is written by the encounter's last-finishing
// worker, possibly while the next encounter initialises, hence atomic.
type loopAdapt struct {
	kind   sched.Kind // concrete kind the last encounter ran under
	chunk  int
	count  int    // trip count the state was tuned for
	rounds uint64 // encounters observed
	// skewed latches once any encounter measured high imbalance: a loop
	// that needed balancing once may need it again, so balanced
	// re-encounters then coarsen the chunk instead of dropping all the
	// way back to static dispatch (which would oscillate under
	// asymmetry: uniform static carve → skew → steal → balanced →
	// static → skew …).
	skewed bool
	imb    atomic.Uint64 // float64 bits: last max/mean share-time ratio
}

// imbalance returns the last published imbalance ratio, or 0 when no
// encounter has completed yet.
func (a *loopAdapt) imbalance() float64 {
	return math.Float64frombits(a.imb.Load())
}

// publish records the imbalance the just-finished encounter measured.
func (a *loopAdapt) publish(imb float64) {
	a.imb.Store(math.Float64bits(imb))
}

// adaptMeasurable reports whether per-share wall times can measure
// cross-worker imbalance for a team of the given size. When the team's
// workers time-share fewer processors than the team has members, every
// share's elapsed time includes the time the worker spent descheduled
// while its siblings ran — balanced loops then measure imbalance ratios
// approaching the team size, and re-tuning on that noise makes every
// loop converge to fine-grained stealing it doesn't need. In that
// regime the adaptive state keeps whatever it last resolved to. A var
// so tests can force the measured path on single-CPU machines.
var adaptMeasurable = func(teamSize int) bool {
	return runtime.GOMAXPROCS(0) >= teamSize
}

// resolve resolves one encounter of an Adaptive for construct on a team of
// size workers to a concrete schedule, updating the construct's persistent
// state. forShared.init calls it only for what sched.Resolve left
// Adaptive: a team of two or more and a trip count the steal dispenser can
// pack.
//
// Policy: the first sight of a loop (or a reshaped trip count) gets the
// shape rule — static by blocks below shapeGuidedMin iterations per worker,
// guided otherwise — so an adaptive loop pays nothing for learning until
// there is measurement to act on; on an oversubscribed team (see
// adaptMeasurable) it gets static block regardless, because dispensing
// overhead cannot be repaid when the workers time-share the CPUs and the
// feedback below is blind there. Measured re-encounters act on the
// imbalance: too skewed → move to steal, whose thieves absorb the
// asymmetry, or halve the chunk if already balancing (finer grain gives
// thieves more rebalancing currency); well balanced → drop back to static
// dispatch if the loop never needed balancing, else coarsen the chunk
// (cheaper dispatch either way); in between → keep what works.
func (st *loopAdapt) resolve(size, n, chunk int) (sched.Kind, int) {
	st.rounds++
	k, c := st.kind, st.chunk
	switch {
	case st.rounds == 1 || st.count != n:
		// First sight, or the loop changed shape: tune from shape alone.
		k, c = sched.StaticBlock, chunk
		if adaptMeasurable(size) && n >= size*shapeGuidedMin {
			k = sched.Guided
		}
	case !adaptMeasurable(size):
		// Imbalance is unmeasurable here (see adaptMeasurable): keep the
		// last resolution rather than re-tune on scheduler noise.
	default:
		switch imb := st.imbalance(); {
		case imb > adaptImbHigh:
			st.skewed = true
			if k != sched.Steal && k != sched.Dynamic {
				k = sched.Steal
				c = adaptDefaultChunk(n, size)
			} else if c > 1 {
				c /= 2
			}
		case imb > 0 && imb < adaptImbLow:
			if !st.skewed && k != sched.StaticBlock && k != sched.StaticCyclic {
				// Balanced and never needed balancing: pay zero dispatch.
				// Static encounters keep measuring imbalance (EndFor
				// times every adaptive share), so the loop upgrades
				// back the moment skew appears.
				k = sched.StaticBlock
			} else if next := c * 2; next <= n/(2*size) {
				// Balanced but once-skewed (or already static): coarsen
				// dispatch instead, capped so every worker still sees two
				// chunks' worth of rebalancing slack.
				c = next
			}
		}
	}
	st.kind, st.chunk, st.count = k, c, n
	return k, c
}
