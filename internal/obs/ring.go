package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// EventKind tags one trace record.
type EventKind uint8

// Event kinds recorded by the built-in tracer. A kind with a duration is
// one record written when its slice ends, which the Chrome export renders
// as a slice; the rest become instants or flow endpoints.
const (
	EvRegion EventKind = iota + 1
	EvImplicit
	EvTeamRetire
	EvTaskCreate
	EvTaskRun
	EvTaskInline
	EvStealSuccess
	EvBarrier
	EvDepRelease
	EvWork
)

// Event is one fixed-size trace record: a slice [Start, When] or, with
// Start == When, an instant. Fields are kind-specific: Task carries a task
// trace id; Arg carries team sizes and lease kinds, schedule kinds, task
// kinds or a victim worker id. Records are plain data — workers write them
// into preallocated ring slots and the drain copies them out, so nothing
// here may hold a pointer.
type Event struct {
	Start  int64 // ns since the trace epoch; negative if it began before
	When   int64 // ns since the trace epoch: the slice's end, or the instant
	Team   uint64
	Task   uint64
	Arg    uint64
	Worker WorkerID
	Kind   EventKind
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
