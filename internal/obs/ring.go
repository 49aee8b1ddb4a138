package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// EventKind tags one trace record.
type EventKind uint8

// Event kinds recorded by the built-in tracer. Begin/End pairs become
// nested duration slices in the Chrome export; the rest become instants,
// flow endpoints or derived spans (barrier waits).
const (
	EvRegionFork EventKind = iota + 1
	EvRegionJoin
	EvImplicitBegin
	EvImplicitEnd
	EvTeamLease
	EvTeamRetire
	EvTaskCreate
	EvTaskSchedule
	EvTaskComplete
	EvTaskInline
	EvStealSuccess
	EvBarrierArrive
	EvBarrierDepart
	EvDepRelease
	EvWorkBegin
	EvWorkEnd
	EvSpanBegin
	EvSpanEnd
)

// Event is one fixed-size trace record. Fields are kind-specific: Task
// carries a task trace id, an interned span name, or a victim worker id;
// Arg carries wait nanoseconds, team sizes, schedule kinds or hit flags.
// Records are plain data — workers write them into preallocated ring slots
// and the drain copies them out, so nothing here may hold a pointer.
type Event struct {
	When   int64 // ns since the trace epoch
	Team   uint64
	Task   uint64
	Arg    uint64
	Kind   EventKind
	Worker WorkerID
	Level  uint8
}

// ring is one worker's bounded event buffer. Appends are lock-free and
// allocation-free: a writer claims a slot with a CAS on next, writes the
// record, and drops the event (counted) when the buffer is full or an
// exclusive pass (drain, reset) is in progress. A pass
// excludes writers without making them lock: it raises draining and waits
// for the writers count to reach zero — every writer increments it before
// touching the buffer and decrements it after, so the final decrement's
// release pairs with the pass's acquire and orders all record writes
// before the pass's reads. Passes serialize among themselves on passMu.
// Slot indices are claimed monotonically and masked into the buffer, so
// slots are reused ring-wise across drains; between two drains each live
// index maps to a distinct slot, which is what makes concurrent claimants
// write-disjoint.
type ring struct {
	buf  []Event
	mask uint64

	next     atomic.Uint64 // next slot index to claim (monotonic)
	base     atomic.Uint64 // drained watermark: live records are [base, next)
	writers  atomic.Int32  // writers past the draining check
	draining atomic.Bool
	dropped  atomic.Uint64
	passMu   sync.Mutex // serializes exclusive passes; writers never take it
}

// newRing creates a ring with capacity rounded up to a power of two.
func newRing(capacity int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring{buf: make([]Event, n), mask: uint64(n - 1)}
}

// append records ev, reporting whether it was stored; a full ring or one
// being drained drops the event (counted) instead. Safe for concurrent
// writers — goroutines that inherited one worker's context, and distinct
// workers folded onto a shared ring, can emit concurrently.
func (r *ring) append(ev Event) bool {
	stored := false
	r.writers.Add(1)
	if r.draining.Load() {
		r.dropped.Add(1)
		r.writers.Add(-1)
		return false
	}
	for {
		i := r.next.Load()
		if i-r.base.Load() >= uint64(len(r.buf)) {
			r.dropped.Add(1)
			break
		}
		if r.next.CompareAndSwap(i, i+1) {
			r.buf[i&r.mask] = ev
			stored = true
			break
		}
	}
	r.writers.Add(-1)
	return stored
}

// exclusive runs fn with writers shut out: it raises draining, waits out
// in-flight writers, runs fn and re-admits them. passMu serializes the
// exclusive passes of one ring — without it, the first of two overlapping
// passes to finish would lower draining while the other is still reading
// buf (StopTrace's drain and StartTrace's reset overlap exactly so when
// two goroutines drive the tracer). Writers never take the mutex.
func (r *ring) exclusive(fn func()) {
	r.passMu.Lock()
	defer r.passMu.Unlock()
	r.draining.Store(true)
	for r.writers.Load() != 0 {
		runtime.Gosched()
	}
	fn()
	r.draining.Store(false)
}

// drain removes and returns all buffered records [base, next) in claim
// order. Emits racing with the drain are dropped (counted), never torn.
func (r *ring) drain() (out []Event) {
	r.exclusive(func() {
		base, next := r.base.Load(), r.next.Load()
		out = make([]Event, 0, next-base)
		for i := base; i < next; i++ {
			out = append(out, r.buf[i&r.mask])
		}
		r.base.Store(next)
	})
	return out
}

// reset discards buffered records and the drop counter (StartTrace).
func (r *ring) reset() {
	r.exclusive(func() {
		r.base.Store(r.next.Load())
		r.dropped.Store(0)
	})
}

// len reports the number of buffered records (diagnostics/tests).
func (r *ring) len() int { return int(r.next.Load() - r.base.Load()) }
