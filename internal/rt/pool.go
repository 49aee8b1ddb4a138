package rt

import (
	"sync"
	"sync/atomic"

	"aomplib/internal/obs"
)

// Hot teams: parallel regions lease long-lived teams from a process-wide
// pool instead of building one per entry. A leased team reuses its worker
// goroutines (parked on their wake channels between regions), deques,
// barrier, task group and dependence tracker after a cheap reset
// (Team.beginLease), so region-per-iteration programs — SOR, MolDyn, the
// paper's Fig. 13 LUFact — stop paying team construction thousands of
// times. The pool caches by exact team size; a miss cold-spawns a team
// that becomes poolable when its entry completes cleanly. Panicked or
// poisoned teams are retired — their goroutines released, the team
// dropped — never recycled.

// hotOff gates team reuse. The zero value means "enabled" (hot teams are
// the default), so the gate costs one atomic load per region entry.
var hotOff atomic.Bool

// SetHotTeams enables or disables hot-team reuse, returning the previous
// setting. Disabling drains the pool — cached teams are retired — and
// subsequent regions spawn and discard their teams, the pre-pool
// behaviour.
func SetHotTeams(on bool) bool {
	prev := !hotOff.Swap(!on)
	if !on {
		drainPool()
	}
	return prev
}

// HotTeamsEnabled reports whether parallel regions reuse pooled teams.
func HotTeamsEnabled() bool { return !hotOff.Load() }

var (
	poolMu sync.Mutex
	// poolIdle caches idle teams by exact size, LIFO so the most recently
	// parked (cache-warmest) team is leased first.
	poolIdle = map[int][]*Team{}
	// poolWorkers is the worker count parked in poolIdle (sum of cached
	// team sizes, masters included) — what the capacity bound limits.
	poolWorkers int
	// poolLimit is the idle-worker bound; 0 selects the default.
	poolLimit int
)

// Team retirements and evictions, the pool's only counts of its own. They
// are atomics because they happen outside poolMu, and off the warm path.
var (
	statRetired atomic.Uint64
	statEvicted atomic.Uint64
)

// PoolStats is a snapshot of the hot-team pool, for observability. Leases
// and Hits are views of the metrics registry's region entries by lease
// kind, so they count only while metrics are on (obs.EnableMetrics);
// Retired and Evicted are cumulative since process start; Idle* and
// MaxIdleWorkers describe the instant of the call.
type PoolStats struct {
	Leases  uint64 // pooled region entries: hits and cold spawns
	Hits    uint64 // entries served by a cached team
	Retired uint64 // teams destroyed after a panic or a dead worker
	Evicted uint64 // healthy teams dropped: pool full, shrunk, or disabled

	IdleTeams      int // teams parked in the pool right now
	IdleWorkers    int // workers parked in the pool right now
	MaxIdleWorkers int // current idle-worker capacity bound
}

// ReadPoolStats snapshots the pool.
func ReadPoolStats() PoolStats {
	l := obs.ReadMetrics().Leases
	st := PoolStats{
		Leases:  l.Hit + l.Cold,
		Hits:    l.Hit,
		Retired: statRetired.Load(),
		Evicted: statEvicted.Load(),
	}
	poolMu.Lock()
	for _, ts := range poolIdle {
		st.IdleTeams += len(ts)
	}
	st.IdleWorkers = poolWorkers
	st.MaxIdleWorkers = poolCapacityLocked()
	poolMu.Unlock()
	return st
}

// poolCapacityLocked resolves the idle-worker bound: the explicit
// SetPoolSize value, or four default-sized teams' worth — enough for a
// top-level team plus a few nested ones without hoarding goroutines.
func poolCapacityLocked() int {
	if poolLimit > 0 {
		return poolLimit
	}
	return 4 * DefaultThreads()
}

// SetPoolSize bounds how many workers the pool may keep parked (the sum
// of cached team sizes); 0 restores the default of four times the default
// team size. The bound limits hoarding across sizes — the one size in
// active use still keeps a single pooled team even above it (releaseTeam).
// It returns the previous explicit bound (0 if the default was in force)
// and immediately evicts cached teams that no longer fit.
func SetPoolSize(maxIdleWorkers int) int {
	if maxIdleWorkers < 0 {
		maxIdleWorkers = 0
	}
	poolMu.Lock()
	prev := poolLimit
	poolLimit = maxIdleWorkers
	evicted := evictOverLocked()
	poolMu.Unlock()
	for _, t := range evicted {
		evictTeam(t)
	}
	return prev
}

// popSizeLocked removes and returns the most recently parked team of the
// given size, or nil. Called with poolMu held; all bucket bookkeeping
// (tail nil-out, poolWorkers accounting) lives here. An emptied bucket
// keeps its zero-length slice header in the map on purpose: the retained
// backing array is what lets the steady-state park in releaseTeam append
// without allocating — deleting the bucket would cost one alloc per warm
// region entry and break the 0 allocs/op gate.
func popSizeLocked(size int) *Team {
	ts := poolIdle[size]
	if len(ts) == 0 {
		return nil
	}
	t := ts[len(ts)-1]
	ts[len(ts)-1] = nil
	poolIdle[size] = ts[:len(ts)-1]
	poolWorkers -= size
	return t
}

// popAnyLocked removes and returns one parked team from any size bucket,
// or nil when the pool is empty. Called with poolMu held. Used where
// victim order does not matter (full drains, shrinks).
func popAnyLocked() *Team {
	for size := range poolIdle {
		if t := popSizeLocked(size); t != nil {
			return t
		}
	}
	return nil
}

// popFrontLocked removes and returns the *oldest* parked team of the
// given size (acquire takes the warm LIFO tail, so the bucket front is
// the stalest inventory), or nil. The shift keeps the backing array, so
// steady-state parking stays allocation-free. Called with poolMu held.
func popFrontLocked(size int) *Team {
	ts := poolIdle[size]
	if len(ts) == 0 {
		return nil
	}
	t := ts[0]
	copy(ts, ts[1:])
	ts[len(ts)-1] = nil
	poolIdle[size] = ts[:len(ts)-1]
	poolWorkers -= size
	return t
}

// popVictimLocked picks the best eviction victim when parking a team of
// size keep: the oldest parked team of any *other* size first — that is
// the stale inventory — and only then the oldest of keep's own bucket,
// so making room can never evict warmer same-size teams ahead of
// never-reused odd sizes. Called with poolMu held.
func popVictimLocked(keep int) *Team {
	for size := range poolIdle {
		if size == keep {
			continue
		}
		if t := popFrontLocked(size); t != nil {
			return t
		}
	}
	return popFrontLocked(keep)
}

// evictOverLocked pops cached teams until the pool fits its capacity,
// returning them for destruction outside the lock.
func evictOverLocked() []*Team {
	var out []*Team
	for poolWorkers > poolCapacityLocked() {
		t := popAnyLocked()
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}

// drainPool retires every cached team (SetHotTeams(false)).
func drainPool() {
	poolMu.Lock()
	var all []*Team
	for size, ts := range poolIdle {
		all = append(all, ts...)
		delete(poolIdle, size)
	}
	poolWorkers = 0
	poolMu.Unlock()
	for _, t := range all {
		evictTeam(t)
	}
}

// acquireTeam leases a cached team of exactly n workers, or cold-spawns
// one, and reports which. Leasing never blocks: when the cache has no
// team of the right size (pool exhausted, or nesting overflowed it), the
// entry pays the cold spawn — so nested leases cannot deadlock by
// construction.
func acquireTeam(n int) (*Team, obs.LeaseKind) {
	if HotTeamsEnabled() {
		poolMu.Lock()
		t := popSizeLocked(n)
		poolMu.Unlock()
		if t != nil {
			return t, obs.LeaseHit
		}
	}
	return newTeam(n), obs.LeaseCold
}

// releaseTeam parks a cleanly-finished team in the pool, or destroys it
// when hot teams are off or it cannot fit even after making room.
//
// The hot-teams flag is re-read under poolMu: SetHotTeams(false) swaps
// the flag before draining, so a concurrent release either observes the
// disabled flag here and destroys its team, or parks it before the
// drain's lock acquisition and the drain collects it — worker goroutines
// cannot leak into a disabled pool.
//
// When the pool is full, older parked teams are evicted to make room:
// the just-finished team is the warmest and its size is what the program
// is leasing right now, so dropping it in favour of stale inventory
// (e.g. a lone size-1 team parked by a 1-thread sweep starving every
// size-4 release) would disable reuse exactly where it pays. For the
// same reason a team larger than the configured bound still parks once
// the pool has been emptied for it — the bound limits hoarding across
// sizes, it must not silently disable reuse for the one size in active
// use; the pool may therefore transiently hold a single over-bound team.
func releaseTeam(t *Team) {
	var evicted []*Team
	parked := false
	poolMu.Lock()
	if HotTeamsEnabled() {
		for poolWorkers > 0 && poolWorkers+t.Size > poolCapacityLocked() {
			e := popVictimLocked(t.Size)
			if e == nil {
				break
			}
			evicted = append(evicted, e)
		}
		if poolWorkers == 0 || poolWorkers+t.Size <= poolCapacityLocked() {
			poolIdle[t.Size] = append(poolIdle[t.Size], t)
			poolWorkers += t.Size
			parked = true
		}
	}
	poolMu.Unlock()
	for _, e := range evicted {
		evictTeam(e)
	}
	if !parked {
		evictTeam(t)
	}
}

// evictTeam destroys a healthy team the pool has no room for.
func evictTeam(t *Team) {
	statEvicted.Add(1)
	t.destroy()
}

// retireTeam destroys a team whose lease panicked or whose worker died —
// poisoned state must never be recycled.
func retireTeam(t *Team) {
	statRetired.Add(1)
	t.destroy()
}
