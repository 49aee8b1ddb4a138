package rt

import (
	"sync"
	"sync/atomic"

	"aomplib/internal/obs"
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

	// start stamps the beginning of this worker's share (an obs.Now
	// reading) when the encounter is adaptive, whose imbalance measurement
	// reads it, or the tracer is on, whose work slice shares it. No other
	// encounter reads the clock.
	start int64

	// parts is what Next serves to a static or custom encounter, one part
	// at a time: the worker's arithmetic share (held in one) or its
	// ScheduleFunc's sub-ranges. part indexes the next one.
	parts []sched.Space
	one   [1]sched.Space
	part  int
	// The context is exactly two cache lines. Next writes part as it
	// serves, and a team-mate's context allocated next to this one would
	// otherwise share a line with it (on a 2-vCPU x86 host a woven dynamic
	// @For encounter measured ≈ 20 % slower when it did).
	_ [16]byte
}

// dispenseBatchChunks is how many chunks a dynamic claim takes away from
// the loop tail (the rule: sched.Dispenser.NextBatch). Not a knob.
const dispenseBatchChunks = 4

// forShared is the team-shared state of one for-construct encounter,
// initialised in place in the encounter's slot by the first arriver.
type forShared struct {
	// kind is the schedule this encounter resolved to. Adaptive is
	// resolved exactly once, by the first arriving worker, and shared here
	// — so one encounter never splits across two schedules (which would
	// desynchronise the implicit barrier).
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
// initialise one after another, so c's adaptive state needs no lock.
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
		fs.sdisp.Reset(sp, chunk, t.Size)
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
// custom is the ScheduleFunc of a Custom kind (nil for every other kind).
// Adaptive resolves once per encounter in the shared state, and the
// resolved kind is published as ForContext.Kind. It resolves through the
// construct's persistent adaptive state (adapt.go), so the schedule each
// encounter runs under is fed by the imbalance the previous one measured.
// The worker draws its share with Next until it reports false, then
// finishes with EndFor. Contexts are recycled through a worker-private
// free list, so steady-state encounters of for constructs allocate nothing
// on the worker side.
func BeginFor(w *Worker, key any, sp sched.Space, kind sched.Kind, chunk int, custom sched.ScheduleFunc) *ForContext {
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
	*fc = ForContext{Space: sp, Kind: shared.kind, Worker: w, slot: s}
	switch fc.Kind {
	case sched.StaticBlock, sched.StaticCyclic:
		fc.one[0] = staticShare(sp, fc.Kind, t.Size, w.ID)
		fc.parts = fc.one[:]
	case sched.Custom:
		fc.parts = custom(w.ID, t.Size, sp)
	}
	if shared.adapt != nil || obs.Active().Tracing() {
		fc.start = obs.Now()
	}
	w.activeFor = append(w.activeFor, fc)
	return fc
}

// staticShare is worker id's share of sp under a static kind: its block,
// or its stride of the cyclic assignment.
func staticShare(sp sched.Space, kind sched.Kind, size, id int) sched.Space {
	if kind == sched.StaticCyclic {
		return sched.Cyclic(sp, size, id)
	}
	return sched.Block(sp, size, id)
}

// Next yields the worker's next sub-range of the encounter, with its
// iteration count, under the kind the encounter resolved to; the bool is
// false once the worker's share is exhausted. A static kind serves the
// worker's share once and a custom schedule each of its non-empty parts.
// Dynamic and guided serve whole claims on the shared cursor: the claim is
// the unit of dispatch, spanning dispenseBatchChunks chunks away from the
// loop tail (sched.Dispenser.NextBatch). Steal serves chunks of the
// worker's own carved range while it lasts (the locality order), then
// chunks stolen off the most loaded sibling, reported through the steal
// events task stealing emits: a fruitless scan reports a bare attempt,
// and any scan its probe count.
func (fc *ForContext) Next() (sched.Space, int, bool) {
	var from, to int64
	var ok bool
	switch fc.Kind {
	case sched.Dynamic, sched.Guided:
		from, to, ok = fc.slot.fs.disp.NextBatch(dispenseBatchChunks)
	case sched.Steal:
		w := fc.Worker
		var victim, probes int
		from, to, victim, probes, ok = fc.slot.fs.sdisp.Next(w.ID)
		if victim >= 0 || !ok {
			if h := obs.Active(); h != nil {
				h.StealAttempt(w.gid)
				if probes > 0 {
					h.StealScan(w.gid, probes)
				}
				if victim >= 0 && victim < len(w.Team.workers) {
					// Loop-range steals have no task identity; 0 marks them
					// in the shared steal event stream.
					h.StealSuccess(w.gid, 0, w.Team.workers[victim].gid)
				}
			}
		}
	default: // static or custom: the parts BeginFor laid out
		for fc.part < len(fc.parts) {
			sub := fc.parts[fc.part]
			fc.part++
			if n := sub.Count(); n > 0 {
				return sub, n, true
			}
		}
	}
	if !ok {
		return sched.Space{}, 0, false
	}
	return fc.Space.Slice(int(from), int(to)), int(to - from), true
}

// EndFor pops the work-sharing context from the worker, folds the share's
// time into an adaptive encounter's imbalance measurement, reports the
// share, hands the slot back and recycles the context.
func (fc *ForContext) EndFor() {
	w := fc.Worker
	if n := len(w.activeFor); n > 0 && w.activeFor[n-1] == fc {
		w.activeFor = w.activeFor[:n-1]
		fs := &fc.slot.fs
		h := obs.Active()
		var end int64
		if fs.adapt != nil || h.Tracing() {
			end = obs.Now()
		}
		if fs.adapt != nil {
			fs.noteDone(end - fc.start)
		}
		if h != nil {
			h.Work(w.gid, w.Team.tid, uint8(fc.Kind), fc.start, end)
		}
		if fc.slot.unref() {
			if fs.adapt != nil {
				fs.publishImbalance(w.Team.Size)
			}
			fc.slot.free()
		}
		fc.slot = nil
		w.fcFree = append(w.fcFree, fc)
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
// and nil is returned; on a team of one no slot is taken at all.
func SingleBegin(w *Worker, key any, withResult bool) (bool, *encSlot) {
	if !withResult && w.Team.Size == 1 {
		return true, nil // a team of one: its worker is the first arriver
	}
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
