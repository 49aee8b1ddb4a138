package rt

import (
	"sync/atomic"
	"time"
)

// Grain is the width record of one parallel region (OpenMP's dyn-var,
// decided by measurement): from the master's fork→join times it learns
// whether the region finishes sooner at its requested width or on one
// worker, and serves the faster. Fields are atomic for concurrent entrants
// (a lost update costs one sample). Narrowed entries run on solo, the
// record's own team of one: no lease, and no eviction of the region's
// full-width team from the pool.
type Grain struct {
	full, one, hand atomic.Int64  // EWMA ns: requested width, width 1, full-width hand-off
	seen, probeAt   atomic.Uint64 // entries; the entry from which the losing arm is re-measured
	shift           atomic.Uint32 // log2 of the re-probe interval
	solo            atomic.Pointer[Team]
}

// A region may run narrow only while its hand-off (entry until the last
// team-mate starts) is ≥ 1/grainShare of its full-width time and that time
// is under grainCeil: no JGF kernel region (≥ 50 ms) is ever run narrow to
// find out. Probes of a losing arm back off to 1 entry in 1<<grainMaxShift.
const (
	grainShare    = 8
	grainCeil     = int64(time.Millisecond)
	grainMaxShift = 10
)

// grainArm picks an entry's arm from the EWMAs (0 = unmeasured); due: a
// re-probe of the losing arm is due. First sight and long regions run at
// full width; a short one tries width 1, then the faster arm serves and a
// due probe runs the other.
func grainArm(full, one, hand int64, due bool) (narrow, probe bool) {
	switch {
	case full == 0 || full >= grainCeil || hand*grainShare < full:
		return false, false
	case one == 0:
		return true, true
	}
	return (one < full) != due, due
}

// grainFold is one EWMA step with α = 1/4; 0 is untrained.
func grainFold(old, ns int64) int64 {
	if ns = max(ns, 1); old == 0 {
		return ns
	}
	return old + (ns-old)/4
}

// grainReprobe schedules the probe after one at entry k: a probe that won
// comes back next entry, one that lost doubles the interval, capped.
func grainReprobe(k uint64, shift uint32, won bool) (at uint64, next uint32) {
	if won {
		return k + 1, 0
	}
	next = min(shift+1, grainMaxShift)
	return k + 1<<next, next
}

// grainEntry is one entry's decision; k == 0 (no record) times nothing.
type grainEntry struct {
	k             uint64
	narrow, probe bool
}

// pick decides one entry of a region asking for n workers.
func (g *Grain) pick(n int) grainEntry {
	if g == nil || n < 2 {
		return grainEntry{}
	}
	k := g.seen.Add(1)
	narrow, probe := grainArm(g.full.Load(), g.one.Load(), g.hand.Load(), k >= g.probeAt.Load())
	return grainEntry{k, narrow, probe}
}

// done folds the entry's times into the record; a probe won when its time
// beat the other arm's EWMA. A fold that changes which arm is faster
// restarts the schedule like a winning probe, so the arm it demoted is
// re-measured next entry: one disturbed sample (preemption, GC) cannot
// hold a region at the wrong width for a whole backed-off interval.
func (g *Grain) done(e grainEntry, ns, hand int64) {
	arm, other := &g.full, &g.one
	if e.narrow {
		arm, other = other, arm
	} else {
		g.hand.Store(grainFold(g.hand.Load(), hand))
	}
	old, o := arm.Load(), other.Load()
	now := grainFold(old, ns)
	arm.Store(now)
	flip := old != 0 && o != 0 && (old < o) != (now < o)
	if e.probe || flip {
		at, shift := grainReprobe(e.k, g.shift.Load(), flip || ns < o)
		g.probeAt.Store(at)
		g.shift.Store(shift)
	}
}
