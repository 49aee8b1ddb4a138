package rt

import (
	"sync"
	"sync/atomic"
	"time"

	"aomplib/internal/sched"
)

// ForContext is the per-worker view of one encounter of a for work-sharing
// construct. It carries the full iteration space and the shared per-encounter
// state (dynamic dispenser, ordered sequencer). The for advice pushes it on
// the worker while executing the worker's portion so that nested constructs
// — notably @Ordered, which "is only supported within the calling context
// of a for method" — can find it.
type ForContext struct {
	Space  sched.Space
	Kind   sched.Kind
	Worker *Worker
	slot   *encSlot // the encounter's slot, held until EndFor; slot.fs is the shared state

	// start/iters bracket this worker's share for the speed estimator:
	// BeginFor stamps start, the dispensers accumulate iters (static kinds
	// are reconstructed arithmetically at EndFor), and EndFor folds
	// iters/elapsed into the worker's speed EWMA (adapt.go). Worker-local
	// plain fields — no atomics, no allocation.
	start time.Time
	iters int64
}

// dispenseBatchChunks is how many chunks a dynamic claim takes away from
// the loop tail (the rule: sched.Dispenser.NextBatch). Not a knob.
const dispenseBatchChunks = 4

// forShared is the team-shared state of one for-construct encounter,
// initialised in place in the encounter's slot by the first arriver.
type forShared struct {
	// kind is the schedule this encounter resolved to. Indirect kinds
	// (sched.Runtime, sched.Adaptive) are resolved exactly once, by the
	// first arriving worker, and shared here — so a concurrent change of
	// the process-wide default can never split one encounter across two
	// schedules (which would desynchronise the implicit barrier).
	kind sched.Kind
	disp sched.Dispenser // dynamic/guided only
	// sdisp serves steal encounters. It is allocated on the slot's first
	// steal encounter and re-armed in place on every later one, so a steady
	// state steal loop allocates nothing.
	sdisp *sched.StealDispenser

	// adapt links the encounter to its construct's persistent adaptive
	// state; nil when the construct is not adaptively scheduled. The
	// imbalance measurement below feeds it: each worker folds its share
	// time into maxNs/sumNs at EndFor, and the last one to release the
	// slot publishes max/mean — the ratio the next encounter re-tunes on.
	adapt *loopAdapt
	maxNs atomic.Int64
	sumNs atomic.Int64

	// ordered sequencing: next loop value whose ordered section may run.
	omu   sync.Mutex
	ocond *sync.Cond
	onext int
}

// init arms fs for one encounter of construct c, on the first arriver,
// which owns the slot until it publishes. Encounters of one construct
// initialise one after another, so c's adaptive state and scratch need no lock.
func (fs *forShared) init(t *Team, c *construct, sp sched.Space, kind sched.Kind, chunk int) {
	n := sp.Count()
	fs.adapt, fs.onext = nil, sp.Lo
	kind = sched.Resolve(kind, n, t.Size)
	if kind == sched.Adaptive {
		kind, chunk = c.adapt.resolve(t.Size, n, chunk)
		fs.adapt = &c.adapt
		fs.maxNs.Store(0)
		fs.sumNs.Store(0)
	}
	fs.kind = kind
	switch kind {
	case sched.Dynamic, sched.Guided:
		fs.disp.Reset(sp, chunk, kind == sched.Guided, t.Size)
	case sched.Steal:
		if fs.sdisp == nil {
			fs.sdisp = new(sched.StealDispenser)
		}
		fs.sdisp.Reset(sp, chunk, t.Size, t.speedWeights(c))
	}
}

// noteDone folds one worker's share time into the encounter's imbalance
// measurement.
func (fs *forShared) noteDone(elapsed int64) {
	for {
		cur := fs.maxNs.Load()
		if elapsed <= cur || fs.maxNs.CompareAndSwap(cur, elapsed) {
			break
		}
	}
	fs.sumNs.Add(elapsed)
}

// publishImbalance hands the finished encounter's max/mean share time to
// the adaptive state; called by the last of the team's size workers out.
func (fs *forShared) publishImbalance(size int) {
	if mean := fs.sumNs.Load() / int64(size); mean > 0 {
		fs.adapt.publish(float64(fs.maxNs.Load()) / float64(mean))
	}
}

// BeginFor establishes the work-sharing context for one encounter of the
// construct identified by key on worker w. kind/chunk select the schedule;
// indirect kinds (Runtime, Adaptive) resolve once per encounter in the
// shared state, and the resolved kind is published as ForContext.Kind —
// callers switch on it, not on the declared kind. Adaptive resolves through
// the team's persistent adaptive state (adapt.go), so the schedule each
// encounter runs under is fed by the imbalance the previous one measured.
// The returned ForContext must be finished with EndFor (normally deferred).
// Contexts are recycled through a worker-private free list, so
// steady-state encounters of for constructs allocate nothing on the
// worker side.
func BeginFor(w *Worker, key any, sp sched.Space, kind sched.Kind, chunk int) *ForContext {
	t := w.Team
	s, c, first := w.encounter(key)
	shared := &s.fs
	if first {
		shared.init(t, c, sp, kind, chunk)
		s.setPhase(slotReady)
	}
	var fc *ForContext
	if n := len(w.fcFree); n > 0 {
		fc = w.fcFree[n-1]
		w.fcFree = w.fcFree[:n-1]
	} else {
		fc = &ForContext{}
	}
	*fc = ForContext{Space: sp, Kind: shared.kind, Worker: w, slot: s, start: time.Now()}
	w.activeFor = append(w.activeFor, fc)
	if h := obsHooks(); h != nil && h.WorkBegin != nil {
		h.WorkBegin(w.gid, t.tid, uint8(shared.kind))
	}
	return fc
}

// EndFor pops the work-sharing context from the worker, folds the share's
// measured throughput into the worker's speed estimate and the encounter's
// imbalance measurement, hands the slot back and recycles the context.
func (fc *ForContext) EndFor() {
	w := fc.Worker
	if n := len(w.activeFor); n > 0 && w.activeFor[n-1] == fc {
		w.activeFor = w.activeFor[:n-1]
		elapsed := int64(time.Since(fc.start))
		iters := fc.iters
		switch fc.Kind {
		// Static shares never dispense — reconstruct the count they ran.
		case sched.StaticBlock:
			iters = int64(sched.Block(fc.Space, w.Team.Size, w.ID).Count())
		case sched.StaticCyclic:
			iters = int64(sched.Cyclic(fc.Space, w.Team.Size, w.ID).Count())
		}
		w.updateSpeed(iters, elapsed)
		fs := &fc.slot.fs
		if fs.adapt != nil {
			fs.noteDone(elapsed)
		}
		if fc.slot.unref() {
			if fs.adapt != nil {
				fs.publishImbalance(w.Team.Size)
			}
			fc.slot.free()
		}
		fc.slot = nil
		w.fcFree = append(w.fcFree, fc)
		if h := obsHooks(); h != nil && h.WorkEnd != nil {
			h.WorkEnd(w.gid, w.Team.tid)
		}
	}
}

// ActiveFor returns the innermost work-sharing context of the worker, or
// nil when the worker is not inside a for construct.
func (w *Worker) ActiveFor() *ForContext {
	if n := len(w.activeFor); n > 0 {
		return w.activeFor[n-1]
	}
	return nil
}

// Dispense makes the worker's next claim on the shared cursor of a dynamic
// or guided loop and returns all of it, as a sub-space with its iteration
// count (known here, a division to re-derive): the claim is the unit of
// dispatch, the caller runs the body once per claim. The sub-space spans
// dispenseBatchChunks chunks away from the loop tail — the chunk is the
// balance unit, not a bound on what the body receives. The bool is false
// when the iteration space is exhausted.
func (fc *ForContext) Dispense() (sched.Space, int, bool) {
	from, to, ok := fc.slot.fs.disp.NextBatch(dispenseBatchChunks)
	if !ok {
		return sched.Space{}, 0, false
	}
	fc.iters += to - from
	return fc.Space.Slice(int(from), int(to)), int(to - from), true
}

// DispenseSteal draws the next chunk for the steal schedule: from the
// worker's own carved range while it lasts (the locality order — remote
// ranges are touched only when the local one is dry), then from ranges
// stolen off the most loaded sibling. Steals are reported to an installed
// tool through the same steal hooks task stealing uses; a fruitless scan
// reports a bare attempt, and any scan reports its probe count so
// victim-selection quality is observable. The int is the chunk's iteration
// count, as for Dispense.
func (fc *ForContext) DispenseSteal() (sched.Space, int, bool) {
	w := fc.Worker
	from, to, victim, probes, ok := fc.slot.fs.sdisp.Next(w.ID)
	if victim >= 0 || !ok {
		if h := obsHooks(); h != nil {
			if h.StealAttempt != nil {
				h.StealAttempt(w.gid)
			}
			if h.StealScan != nil && probes > 0 {
				h.StealScan(w.gid, probes)
			}
			if victim >= 0 && victim < len(w.Team.workers) && h.StealSuccess != nil {
				// Loop-range steals have no task identity; 0 marks them in
				// the shared steal event stream.
				h.StealSuccess(w.gid, 0, w.Team.workers[victim].gid)
			}
		}
	}
	if !ok {
		return sched.Space{}, 0, false
	}
	fc.iters += to - from
	return fc.Space.Slice(int(from), int(to)), int(to - from), true
}

// Ordered runs section when the loop value `iter` becomes the next value
// in the sequential iteration order of the construct (paper Table 1,
// @Ordered). Every iteration of the space must execute its ordered section
// exactly once, otherwise later iterations deadlock — the same contract as
// OpenMP's ordered clause.
func (fc *ForContext) Ordered(iter int, section func()) {
	fs := &fc.slot.fs
	fs.omu.Lock()
	if fs.ocond == nil { // lazily allocated: most for constructs never order
		fs.ocond = sync.NewCond(&fs.omu)
	}
	for fs.onext != iter {
		fs.ocond.Wait()
	}
	fs.omu.Unlock()
	// Section runs outside the lock: only one iteration can hold the turn.
	section()
	fs.omu.Lock()
	fs.onext = iter + fc.Space.Step
	if fs.ocond != nil {
		fs.ocond.Broadcast()
	}
	fs.omu.Unlock()
}

// SingleBegin reports true to the one worker of the team that executes this
// encounter of the single construct identified by key — its first arriver
// (paper Table 1, @Single). withResult must be true when the construct
// broadcasts a value: the encounter's slot is then returned and every worker
// owes it exactly one Broadcast. Without a result the slot is released here
// and nil is returned.
func SingleBegin(w *Worker, key any, withResult bool) (bool, *encSlot) {
	s, _, first := w.encounter(key)
	if first {
		s.ready = false
		s.setPhase(slotReady)
	}
	if !withResult {
		s.release()
		return first, nil
	}
	return first, s
}

// MasterBegin is SingleBegin with a deterministic claimer, worker 0 (paper
// Table 1, @Master). The void form shares nothing and takes no slot.
func MasterBegin(w *Worker, key any, withResult bool) (bool, *encSlot) {
	if !withResult {
		return w.ID == 0, nil
	}
	_, s := SingleBegin(w, key, true)
	return w.ID == 0, s
}

// Broadcast is each worker's one call on a value-returning encounter and
// hands the slot back: the claimer passes the executed method's result,
// everyone else blocks for it, all return it — "the result is propagated to
// all threads in the team".
func (s *encSlot) Broadcast(claim bool, v any) any {
	s.mu.Lock()
	if claim {
		s.result, s.ready = v, true
		s.cond.Broadcast()
	}
	for !s.ready {
		s.cond.Wait()
	}
	v = s.result
	s.mu.Unlock()
	s.release()
	return v
}
