package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The encounter machinery under every work-sharing, single and thread-local
// construct: one persistent record per (team, construct) holding a fixed
// ring of reusable encounter slots, found through a worker-private cursor
// table (the work-share descriptor ring of OpenMP runtimes), so a
// steady-state encounter takes no lock, no map and no allocation. It rests
// on the encounter contract (DESIGN.md §7): every worker of a team meets the
// same encounters of a construct, so worker-local counters agree on them.

// encRing is R: encounter enc lives in slot enc mod R, initialised in place
// by its first arriver and freed by the last worker out. A worker that gets
// R encounters of one construct ahead of its slowest team-mate laps: it
// waits (encounter) for the slot. The slowest worker never waits on the
// ring, so a lap cannot deadlock.
const encRing = 4

// lapYields is how many times a lapped worker yields before it parks.
const lapYields = 64

// teamFailed unwinds a lapped worker whose team-mate died (Team.fail);
// runWorker swallows it, so the join completes and the first panic re-raises.
type teamFailed struct{}

// Slot state word: lease epoch (40 bits) | encounter (22 bits) | phase. With
// Team.epoch folded in, a slot an earlier lease left dirty (a worker skipped
// the construct) reads as free: leases are hermetic with no clearing pass.
// The encounter field only tells enc from enc±R, so it may wrap.
const (
	slotFree  = 0 // never used, or released by every worker: claimable
	slotInit  = 1 // claimed; the first arriver is initialising the payload
	slotReady = 2 // payload published to the encounter's later arrivers
	slotPhase = 3

	slotEncBits    = 22
	slotEpochShift = slotEncBits + 2
)

func slotTag(epoch uint64, enc int64) uint64 {
	return epoch<<slotEpochShift | (uint64(enc)&(1<<slotEncBits-1))<<2
}

// encSlot is the team-shared state of one encounter, reused in place.
type encSlot struct {
	fs     forShared // for constructs; first, so its cursor's line stays clear of state
	state  atomic.Uint64
	left   atomic.Int32 // workers yet to release the current encounter
	parked atomic.Int32 // workers asleep on cond until state changes
	// value-returning single/master: the broadcast (cond also wakes parked).
	mu     sync.Mutex
	cond   sync.Cond
	ready  bool
	result any
}

// tryClaim is one non-blocking attempt to enter encounter enc of lease
// epoch in a team of size workers. It returns the slot — first tells the
// caller to initialise the payload, then publish — or nil while the slot is
// mid-initialisation or still holds encounter enc-R. It linearises at its
// CAS (or load), which is what the exhaustive interleaving test steps by.
func tryClaim(ring []encSlot, epoch uint64, enc int64, size int) (s *encSlot, first bool) {
	s = &ring[int(enc%int64(len(ring)))]
	mine := slotTag(epoch, enc)
	switch cur := s.state.Load(); {
	case cur == mine|slotReady:
		return s, false
	case cur&slotPhase == slotFree || (cur^mine)>>slotEpochShift != 0: // free, or an earlier lease's
		if s.state.CompareAndSwap(cur, mine|slotInit) {
			s.left.Store(int32(size))
			return s, true
		}
	}
	return nil, false
}

// setPhase moves the slot on (publish: slotReady, free: slotFree).
func (s *encSlot) setPhase(ph uint64) {
	s.state.Store(s.state.Load()&^slotPhase | ph)
	s.wakeParked()
}

// wakeParked follows a store a parked worker waits for; its parked load and
// the parker's re-check after incrementing are seq-cst, so neither is missed.
func (s *encSlot) wakeParked() {
	if s.parked.Load() != 0 {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// unref drops the caller's hold on the slot; the last worker out (true)
// finishes with the payload and calls free.
func (s *encSlot) unref() bool { return s.left.Add(-1) == 0 }

func (s *encSlot) free() {
	s.result = nil
	s.setPhase(slotFree)
}

func (s *encSlot) release() {
	if s.unref() {
		s.free()
	}
}

// construct is a team's persistent record of one construct identity: the
// encounter ring, the lease's per-worker thread-locals (Locals) and the
// adaptive scheduling state, which alone survives leases (adapt.go).
type construct struct {
	key   any
	slots [encRing]encSlot

	adapt loopAdapt

	mu          sync.Mutex // guards re-arming locals for a new lease
	localsEpoch atomic.Uint64
	locals      []any
}

// maxConstructs bounds the record table: a team that met more identities is
// churning them (pooled loop keys) and drops the table at its next lease.
const maxConstructs = 128

// construct returns the team's record for key, creating it on first sight;
// only a cursor miss (a worker's first encounter of a construct) comes here.
func (t *Team) construct(key any) *construct {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.records {
		if c.key == key {
			return c
		}
	}
	c := &construct{key: key, locals: make([]any, t.Size)}
	for i := range c.slots {
		c.slots[i].cond.L = &c.slots[i].mu
	}
	t.records = append(t.records, c)
	return c
}

// cursor is one worker's private view of a construct: the record and, reset
// on first touch in a later lease than epoch, its encounter counter and
// thread-local value.
type cursor struct {
	key   any
	c     *construct
	epoch uint64
	enc   int64
	tls   any // nil: not yet created in this lease
}

// cursor finds the worker's cursor for key by identity in a private table
// kept in most-recently-used order (no hashing, no lock): the constructs a
// region runs sit at the front however many a long-lived team has met.
func (w *Worker) cursor(key any) *cursor {
	ep := w.Team.epoch.Load()
	for i, cu := range w.cursors {
		if cu.key == key {
			if i > 0 {
				copy(w.cursors[1:i+1], w.cursors[:i])
				w.cursors[0] = cu
			}
			if cu.epoch != ep {
				cu.epoch, cu.enc, cu.tls = ep, 0, nil
			}
			return cu
		}
	}
	cu := &cursor{key: key, c: w.Team.construct(key), epoch: ep}
	w.cursors = append(w.cursors, cu)
	return cu
}

// encounter enters the worker's next encounter of key. first tells the
// caller to initialise the slot's payload and publish it.
func (w *Worker) encounter(key any) (s *encSlot, c *construct, first bool) {
	cu := w.cursor(key)
	enc := cu.enc
	cu.enc++
	t, ring := w.Team, cu.c.slots[:]
	// Yield while the wait may be short, then park until the slot moves on
	// or the team fails.
	for i := 0; i < lapYields; i++ {
		if s, first = tryClaim(ring, cu.epoch, enc, t.Size); s != nil {
			return s, cu.c, first
		}
		runtime.Gosched()
	}
	slot := &ring[enc%encRing]
	slot.parked.Add(1)
	slot.mu.Lock()
	for {
		if s, first = tryClaim(ring, cu.epoch, enc, t.Size); s != nil || t.failed.Load() {
			break
		}
		slot.cond.Wait()
	}
	slot.mu.Unlock()
	slot.parked.Add(-1)
	if s == nil {
		panic(teamFailed{})
	}
	return s, cu.c, first
}

// fail marks the lease as one a worker left by panic or Goexit and wakes the
// workers parked on a slot or in the team barrier: the release they wait for
// may never come.
func (t *Team) fail() {
	t.failed.Store(true)
	t.barrier.wakeParked()
	t.mu.Lock()
	for _, c := range t.records {
		for i := range c.slots {
			c.slots[i].wakeParked()
		}
	}
	t.mu.Unlock()
}

// PendingInstances reports encounter slots of the current lease not yet
// released by every worker: 0 after a region that kept the encounter contract.
func (t *Team) PendingInstances() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, lease := 0, slotTag(t.epoch.Load(), 0)
	for _, c := range t.records {
		for i := range c.slots {
			if st := c.slots[i].state.Load(); st&slotPhase != slotFree && (st^lease)>>slotEpochShift == 0 {
				n++
			}
		}
	}
	return n
}

// TLS returns the worker-local value for the construct identified by key,
// creating it with factory on the worker's first access in this lease
// (paper Table 1, @ThreadLocalField) and publishing it in the worker's slot
// of Locals(key), where a reduction collects it.
func (w *Worker) TLS(key any, factory func() any) any {
	cu := w.cursor(key)
	if cu.tls == nil {
		cu.tls = factory()
		cu.c.leaseLocals(w.Team)[w.ID] = cu.tls
	}
	return cu.tls
}

// TLSDelete removes the worker-local value (used after reductions so a
// subsequent access re-initialises from the global value).
func (w *Worker) TLSDelete(key any) { w.cursor(key).tls = nil }

// Locals returns the team's per-worker slots of the current lease for the
// construct identified by key: Size entries indexed by worker id, nil until
// TLS publishes there (each lease's first access clears them). A reader of
// other workers' slots must be ordered after their writes by a team barrier.
func (w *Worker) Locals(key any) []any { return w.cursor(key).c.leaseLocals(w.Team) }

func (c *construct) leaseLocals(t *Team) []any {
	if ep := t.epoch.Load(); c.localsEpoch.Load() != ep {
		c.mu.Lock()
		if c.localsEpoch.Load() != ep {
			clear(c.locals)
			c.localsEpoch.Store(ep)
		}
		c.mu.Unlock()
	}
	return c.locals
}
