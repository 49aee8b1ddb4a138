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

// adaptSkewRun is how many timed encounters in a row must read skewed to
// move a loop to steal: one alone is as often a worker descheduled for a
// few microseconds as an asymmetry (on 2 vCPUs, one woven SOR encounter
// in 4–12).
const adaptSkewRun = 2

// adaptWindow is how many timed encounters off steal loopAdapt.base
// remembers.
const adaptWindow = 8

// adaptSampleEvery: off steal, one encounter in adaptSampleEvery times its
// shares. Timing costs each worker two clock reads and two atomics on a
// shared line, 5–7 % of a woven SOR encounter on 2 vCPUs.
const adaptSampleEvery = 4

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
// and what that encounter measured. Every field but last is touched only
// while an encounter initialises (forShared.init, one at a time per
// construct); last is written by the encounter's last-finishing worker,
// possibly while the next encounter initialises, hence atomic.
type loopAdapt struct {
	kind   sched.Kind // concrete kind the last encounter ran under
	chunk  int
	count  int    // trip count the state was tuned for
	rounds uint64 // encounters observed
	tuned  uint64 // the round that last tuned from shape
	skews  int    // skewed encounters in a row, off steal
	// recent rings the critical path (slowest share, ns) of the last
	// adaptWindow timed encounters off steal; next is its write index.
	recent [adaptWindow]int64
	next   int
	// last packs one finished encounter's critical path (high 32 bits)
	// and mean share time (low 32), in ns saturating at 2³²−1, so one load
	// reads both. resolve consumes it: an encounter that starts before the
	// previous one finished finds 0 and keeps the last resolution.
	last atomic.Uint64
}

// publish records the just-finished encounter's critical path and mean
// share time.
func (a *loopAdapt) publish(crit, mean int64) {
	sat := func(ns int64) uint64 { return uint64(min(max(ns, 0), math.MaxUint32)) }
	a.last.Store(sat(crit)<<32 | sat(mean))
}

// base is the least critical path in recent: what the loop takes off
// steal, a descheduled worker's spike or two filtered out. A steal
// encounter slower than base returns the loop to static blocks, since
// stealing must pay for its dispatch (and for the implicit barrier its
// encounters add, which no share clock sees) with the skew it removes.
// Under an asymmetry that came to stay every entry is skewed, and steal,
// which balances it, stays.
func (a *loopAdapt) base() int64 {
	b := int64(math.MaxInt64)
	for _, ns := range a.recent {
		if ns > 0 {
			b = min(b, ns)
		}
	}
	return b
}

// measured takes the measurement publish left, or zeros when no encounter
// has finished since the last call.
func (a *loopAdapt) measured() (crit, mean int64) {
	v := a.last.Swap(0)
	return int64(v >> 32), int64(v & math.MaxUint32)
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
// imbalance: adaptSkewRun skewed ones in a row move the loop to steal,
// whose thieves absorb the asymmetry; a balanced guided loop drops to
// static dispatch; in between, keep what works. On steal, a skewed
// encounter halves the chunk (finer grain gives thieves more rebalancing
// currency), a balanced one doubles it (cheaper dispatch), and one slower
// than base returns the loop to static blocks.
//
// timed reports whether the encounter times its shares for the next:
// every steal encounter, so that a move which does not pay is undone at
// once; off steal, the second encounter after a re-tune from shape and
// every adaptSampleEvery-th after it. A re-tuned encounter is not timed
// (LUFact's shrinking loop re-tunes on every one and would time every
// share for nothing), nor is any on an oversubscribed team.
func (st *loopAdapt) resolve(size, n, chunk int) (k sched.Kind, c int, timed bool) {
	st.rounds++
	k, c, timed = st.kind, st.chunk, true
	crit, mean := st.measured()
	switch {
	case st.rounds == 1 || st.count != n:
		// First sight, or the loop changed shape: tune from shape alone.
		k, c = sched.StaticBlock, chunk
		if adaptMeasurable(size) && n >= size*shapeGuidedMin {
			k = sched.Guided
		}
		st.skews, st.recent, st.tuned, timed = 0, [adaptWindow]int64{}, st.rounds, false
	case !adaptMeasurable(size):
		// Unmeasurable: keep the last resolution rather than re-tune on
		// scheduler noise.
		timed = false
	case mean == 0:
		// No encounter finished since the last resolution: keep it.
	case k == sched.Steal:
		switch imb := float64(crit) / float64(mean); {
		case crit > st.base():
			k, c = sched.StaticBlock, chunk
		case imb > adaptImbHigh && c > 1:
			c /= 2
		case imb < adaptImbLow && c*2 <= n/(2*size):
			// Capped so every worker still sees two chunks' worth of
			// rebalancing slack.
			c *= 2
		}
	default:
		st.recent[st.next] = crit
		st.next = (st.next + 1) % adaptWindow
		switch imb := float64(crit) / float64(mean); {
		case imb <= adaptImbHigh:
			st.skews = 0
			if imb < adaptImbLow && k == sched.Guided {
				// Balanced under a dispensing kind: pay zero dispatch.
				// Static encounters keep being sampled, so the loop
				// upgrades once skew persists.
				k = sched.StaticBlock
			}
		default:
			if st.skews++; st.skews >= adaptSkewRun {
				k, c, st.skews = sched.Steal, adaptDefaultChunk(n, size), 0
			}
		}
	}
	st.kind, st.chunk, st.count = k, c, n
	if k != sched.Steal && (st.rounds-st.tuned)%adaptSampleEvery != 1 {
		timed = false
	}
	return k, c, timed
}
