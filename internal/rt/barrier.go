package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aomplib/internal/obs"
)

// Barrier is a reusable team barrier with generation counting (equivalent
// to a sense-reversing barrier). Each call to Wait blocks until all n
// parties have arrived; the barrier then resets for the next phase. The
// generation discipline is what lets a hot team reuse one barrier across
// every region entry it serves: a clean lease always leaves the barrier
// between generations (all waits paired), so no reset is needed at lease
// boundaries.
//
// Arrivals are counted on a fan-in tree of cache-line-padded atomic
// counters instead of a mutex: workers of the owning team arrive at the
// leaf covering their id, the last arriver of each leaf group propagates
// one batched count to the root, and the last root arriver publishes the
// next generation — so a phase costs each worker one or two uncontended
// RMWs instead of a serialised lock acquisition. Waiters spin on the
// generation word for as long as a park has recently cost (the barrier
// measures each wake) and park on a condition variable only when a phase
// overruns that budget. This is competitive ("ski-rental") spinning: a
// wait costs at most about twice the better of spinning and parking.
//
// The counters are monotonic and the release check is modular, so no
// per-generation reset exists to race with the next phase's arrivals, and
// the generation counter wraps around uint64 without disturbing arrival
// accounting.
//
// Its scope is one team of threads, matching the paper: "The barrier has
// the scope of a team of threads, in a way similar to OpenMP (this
// contrasts with @Critical whose scope is all threads in the system)."
type Barrier struct {
	parties int

	// gen is the release word every waiter spins on; alone on its line so
	// arrival RMW traffic does not invalidate it between releases.
	gen atomic.Uint64
	_   [56]byte

	// Arrival tree. leaves[i] counts arrivals of worker ids
	// [i*barrierFanIn, (i+1)*barrierFanIn); quota[i] is that group's width.
	// nil when parties <= barrierFanIn — arrivals then go straight to the
	// root, which always counts in units of parties per generation.
	// Arrivals without a worker id (standalone barriers, goroutines outside
	// the owning team) also count directly on the root, one unit each.
	leaves []barrierNode
	quota  []int64
	root   barrierNode

	// spinNs is the spin budget in nanoseconds: the learned cost of a park,
	// an average of the wake latencies woken waiters measured. Read by
	// spinners, written under mu.
	spinNs atomic.Int64

	// parked counts waiters committed to sleeping; the releaser takes the
	// broadcast mutex only when it is non-zero, so the spin-release fast
	// path never touches mu.
	parked atomic.Int32
	mu     sync.Mutex
	cond   *sync.Cond
	// releasedAt (obs.Now, guarded by mu) stamps the last broadcast that
	// found parked waiters.
	releasedAt int64

	// owner is the team the barrier synchronises, set by newTeam; nil for
	// standalone barriers. Worker-id arrival routing and observability
	// read it.
	owner *Team
}

// barrierNode is one fan-in counter, padded to a cache line so sibling
// groups do not false-share.
type barrierNode struct {
	count atomic.Int64
	_     [56]byte
}

const (
	// barrierFanIn is the arrival-tree arity: up to this many workers
	// share one leaf counter.
	barrierFanIn = 4

	// Clamps of the spin budget. A fresh barrier starts at the floor, so a
	// cold team's first phases park as readily as they always did; the
	// ceiling bounds what one wait burns when wakes turn slow. A park and
	// its wake cost 10–20 µs on a 2-vCPU KVM guest.
	barrierSpinFloor = int64(2 * time.Microsecond)
	barrierSpinCeil  = int64(500 * time.Microsecond)
	// barrierYieldMask: Gosched every so many spin iterations, so
	// oversubscribed teams (more workers than Ps) cannot starve the
	// arrivals that would release them. The budget is checked only there.
	barrierYieldMask = 63
)

// ownerID is the team identity carried by barrier trace events.
func (b *Barrier) ownerID() uint64 {
	if b.owner != nil {
		return b.owner.tid
	}
	return 0
}

// NewBarrier creates a barrier for the given number of parties (≥ 1).
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		parties = 1
	}
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	b.spinNs.Store(barrierSpinFloor)
	if parties > barrierFanIn {
		groups := (parties + barrierFanIn - 1) / barrierFanIn
		b.leaves = make([]barrierNode, groups)
		b.quota = make([]int64, groups)
		for g := range b.quota {
			width := parties - g*barrierFanIn
			if width > barrierFanIn {
				width = barrierFanIn
			}
			b.quota[g] = int64(width)
		}
	}
	return b
}

// Wait blocks the caller until all parties have called Wait for the
// current generation. The last arriver releases everyone and the barrier
// implicitly resets for the next phase. Returns the generation index that
// completed, which is useful for tests and phase-counting diagnostics.
//
// When the calling goroutine carries a worker context of the barrier's
// owning team, the arrival is routed through that worker's leaf of the
// fan-in tree; any other caller arrives anonymously at the root. On
// standalone barriers (NewBarrier — no owning team, so every arrival is
// anonymous) any `parties` arrivals complete a generation, exactly as
// before. On a *team* barrier wide enough to have a tree (parties >
// fan-in), each team worker must arrive through its own worker context:
// an anonymous arrival standing in for an absent worker leaves that
// worker's leaf short of quota and the phase never completes. Arriving
// at a team barrier from outside the team was already undefined under
// the work-sharing contract (see Team.beginLease); this makes the one
// previously-accidental shape of it — substituted arrivals — explicitly
// unsupported.
func (b *Barrier) Wait() uint64 {
	return b.waitTimed(Current(), nil)
}

// WaitWorker is Wait for call sites that already hold the worker context
// (the woven constructs), skipping the goroutine-local lookup.
func (b *Barrier) WaitWorker(w *Worker) uint64 {
	return b.waitTimed(w, nil)
}

// WaitWorkerThen is WaitWorker with a combining step: the last worker to
// arrive runs last on itself — after every arrival, so it sees what each
// party wrote before arriving, and before the release, so every party sees
// what last wrote — while the others wait: a reduction in one barrier
// episode. Every party of a phase passes the same last. If last panics the
// phase never releases and the waiters leave through Team.fail (await).
func (b *Barrier) WaitWorkerThen(w *Worker, last func(*Worker)) uint64 {
	return b.waitTimed(w, last)
}

// slotOf maps a worker to its arrival id, or -1 for anonymous arrivals.
func (b *Barrier) slotOf(w *Worker) int {
	if w != nil && w.Team != nil && w.Team.barrier == b {
		return w.ID
	}
	return -1
}

// waitTimed wraps the wait with the instrumented arrival: one record of
// the time this caller spent blocked, which the trace renders as a wait
// slice and metrics file as a barrier wait. The worker lookup and the two
// clock reads run only with a consumer on.
func (b *Barrier) waitTimed(w *Worker, last func(*Worker)) uint64 {
	if h := obs.Active(); h != nil {
		gid, start := curGID(), obs.Now()
		gen := b.wait(w, last)
		h.Barrier(gid, b.ownerID(), start, obs.Now())
		return gen
	}
	return b.wait(w, last)
}

func (b *Barrier) wait(w *Worker, last func(*Worker)) uint64 {
	g := b.gen.Load()
	if b.parties == 1 {
		// The one party completes the phase: nobody to count or wake.
		if last != nil {
			last(w)
		}
		b.gen.Add(1)
		return g
	}
	if b.arrive(b.slotOf(w)) {
		if last != nil {
			last(w)
		}
		b.release()
	} else {
		b.await(g)
	}
	return g
}

// arrive counts one arrival, reporting whether the caller completed the
// generation (and must release). Worker arrivals (id ≥ 0) climb the tree:
// the group's last arriver forwards the whole group count to the root in
// one add. All counters are monotonic; modular checks detect the last
// arrival, so generations need no reset and arrivals for the next phase —
// which cannot start before this release — reuse the same counters.
func (b *Barrier) arrive(id int) bool {
	add := int64(1)
	if id >= 0 && b.leaves != nil {
		leaf := id / barrierFanIn
		q := b.quota[leaf]
		if b.leaves[leaf].count.Add(1)%q != 0 {
			return false
		}
		add = q
	}
	return b.root.count.Add(add)%int64(b.parties) == 0
}

// release publishes the next generation and wakes parked waiters. The
// parked load is ordered after the generation store (sequentially
// consistent atomics), pairing with await's parked-increment-then-check,
// so a waiter committing to sleep is either seen here or sees the new
// generation itself.
func (b *Barrier) release() {
	b.gen.Add(1)
	b.wakeParked()
}

// wakeParked follows a store parked waiters watch: gen, or Team.failed
// (fail). The stamp lets the woken measure their wake latency.
func (b *Barrier) wakeParked() {
	if b.parked.Load() != 0 {
		b.mu.Lock()
		b.releasedAt = obs.Now()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// await blocks until generation g completes: first a spin on the
// generation word for the spin budget, then a parked sleep. The clock
// starts at the first yield, so a release caught in the first 64 polls
// costs no clock read. On a team barrier a parked waiter (and a spin is
// bounded) also watches Team.fail and unwinds with teamFailed{} like a
// lapped worker (encounter.go): the arrival it waits for may never come.
func (b *Barrier) await(g uint64) {
	var start int64
	for i := 0; ; i++ {
		if b.gen.Load() != g {
			return
		}
		if i&barrierYieldMask == barrierYieldMask {
			if i == barrierYieldMask {
				start = obs.Now()
			} else if obs.Now()-start > b.spinNs.Load() {
				break
			}
			runtime.Gosched()
		}
	}
	b.parked.Add(1)
	b.mu.Lock()
	// Taken under mu: a stamp written after it is a broadcast that found
	// this waiter asleep, one written before it (a release that landed
	// before the sleep, or an older one) is stale.
	parkedAt := obs.Now()
	for t := b.owner; b.gen.Load() == g && !(t != nil && t.failed.Load()); {
		b.cond.Wait()
	}
	if b.gen.Load() != g {
		b.spinNs.Store(nextSpin(b.spinNs.Load(), parkedAt, b.releasedAt, obs.Now()))
	}
	b.mu.Unlock()
	b.parked.Add(-1)
	if b.gen.Load() == g {
		panic(teamFailed{})
	}
}

// nextSpin is the spin budget after a park that began at parkedAt and
// ended at now, the last waking broadcast stamped releasedAt (all obs.Now
// readings). The wake latency now-releasedAt moves the budget a quarter of
// the way toward itself, within the clamps. A stale stamp (before the
// park) or a non-positive latency teaches nothing.
func nextSpin(budget, parkedAt, releasedAt, now int64) int64 {
	lat := now - releasedAt
	if releasedAt < parkedAt || lat <= 0 {
		return budget
	}
	return min(max(budget+(lat-budget)/4, barrierSpinFloor), barrierSpinCeil)
}

// Parties returns the number of workers the barrier synchronises.
func (b *Barrier) Parties() int { return b.parties }
