package rt

import (
	"testing"

	"aomplib/internal/obs"
	"aomplib/internal/sched"
)

// A team of one pays for no team-mates (DESIGN.md §15, "A team of one"):
// its barrier completes on arrival, its void single claims without an
// encounter slot, and its loops read no clock. These tests pin what each
// shortcut still keeps.

// TestBarrierOfOne: WaitWorkerThen on a one-party barrier runs last once per
// phase on the caller, and each phase advances the generation by one — on a
// team barrier and on a standalone one.
func TestBarrierOfOne(t *testing.T) {
	defer resetPool(t)()
	const phases = 100
	check := func(name string, b *Barrier, w *Worker) {
		runs := 0
		for p := 0; p < phases; p++ {
			g0 := b.gen.Load()
			g := b.WaitWorkerThen(w, func(last *Worker) {
				if last != w {
					t.Errorf("%s phase %d: last ran on %p, want the caller %p", name, p, last, w)
				}
				runs++
			})
			if g != g0 || b.gen.Load() != g0+1 {
				t.Fatalf("%s phase %d: returned generation %d and advanced %d → %d, want %d and one step",
					name, p, g, g0, b.gen.Load(), g0)
			}
		}
		if runs != phases {
			t.Errorf("%s: last ran %d times in %d phases", name, runs, phases)
		}
	}
	Region(1, func(w *Worker) {
		if w.Team.Barrier().Parties() != 1 {
			t.Fatalf("team of one has a %d-party barrier", w.Team.Barrier().Parties())
		}
		check("team barrier", w.Team.Barrier(), w)
	})
	check("standalone barrier", NewBarrier(1), nil)
}

// TestBarrierOfOneCounts: the shortcut sits below the instrumented arrival,
// so with metrics and the tracer on every wait of a team of one is still
// one barrier record: a counted barrier wait and a "barrier" slice in the
// trace.
func TestBarrierOfOneCounts(t *testing.T) {
	defer resetPool(t)()
	const phases = 50
	defer obs.EnableTracing(obs.EnableTracing(false))
	prevM := obs.EnableMetrics(true)
	defer obs.EnableMetrics(prevM)
	Region(1, func(w *Worker) {
		before := obs.ReadMetrics().BarrierWaits
		evs := recordTrace(t, func() {
			for p := 0; p < phases; p++ {
				w.Team.Barrier().WaitWorkerThen(w, func(*Worker) {})
			}
		})
		if got := obs.ReadMetrics().BarrierWaits - before; got != phases {
			t.Errorf("metrics counted %d barrier waits over %d phases", got, phases)
		}
		if got := countEvents(evs, "barrier"); got != phases {
			t.Errorf("the trace holds %d barrier slices over %d phases", got, phases)
		}
	})
}

// TestBarrierOfOnePanicPropagates: a combining step that panics on a team of
// one re-raises from the region as it does on a wider team, and on a
// standalone barrier it leaves the generation where it was.
func TestBarrierOfOnePanicPropagates(t *testing.T) {
	defer resetPool(t)()
	if got := joined(t, func() {
		Region(1, func(w *Worker) {
			w.Team.Barrier().WaitWorkerThen(w, func(*Worker) { panic("merge") })
		})
	}); got != "merge" {
		t.Errorf("region re-raised %v, want merge", got)
	}
	b := NewBarrier(1)
	func() {
		defer func() {
			if r := recover(); r != "merge" {
				t.Errorf("standalone barrier raised %v, want merge", r)
			}
		}()
		b.WaitWorkerThen(nil, func(*Worker) { panic("merge") })
	}()
	if g := b.gen.Load(); g != 0 {
		t.Errorf("a phase whose combining step panicked advanced the generation to %d", g)
	}
}

// TestSingleOfOne: on a team of one every encounter of a void single claims,
// no encounter slot is leased or left pending, and no record of the
// construct is made; the value-returning form still takes its slot and
// hands it back through Broadcast.
func TestSingleOfOne(t *testing.T) {
	defer resetPool(t)()
	void, valued := new(int), new(int)
	Region(1, func(w *Worker) {
		for i := 0; i < 3*encRing; i++ {
			claim, s := SingleBegin(w, void, false)
			if !claim || s != nil {
				t.Fatalf("encounter %d: void single returned (%v, %v), want (true, nil)", i, claim, s)
			}
		}
		if n := w.Team.PendingInstances(); n != 0 {
			t.Errorf("%d encounter slots pending after void singles", n)
		}
		w.Team.mu.Lock()
		for _, c := range w.Team.records {
			if c.key == void {
				t.Error("a void single on a team of one made a construct record")
			}
		}
		w.Team.mu.Unlock()
		for i := 0; i < 3*encRing; i++ {
			claim, s := SingleBegin(w, valued, true)
			if !claim || s == nil {
				t.Fatalf("encounter %d: value single returned (%v, %v), want a claimed slot", i, claim, s)
			}
			if v := s.Broadcast(true, i); v != i {
				t.Fatalf("encounter %d: broadcast %v, want %d", i, v, i)
			}
		}
		if n := w.Team.PendingInstances(); n != 0 {
			t.Errorf("%d encounter slots pending after value singles", n)
		}
	})
}

// TestForOfOne: a dynamic loop on a team of one resolves to one static
// block covering the whole space, and reads no clock.
func TestForOfOne(t *testing.T) {
	defer resetPool(t)()
	key := new(int)
	sp := sched.Space{Lo: 0, Hi: 1024, Step: 1}
	Region(1, func(w *Worker) {
		for _, kind := range []sched.Kind{sched.Dynamic, sched.Guided, sched.Steal, sched.Adaptive} {
			fc := BeginFor(w, key, sp, kind, 16, nil)
			if fc.Kind != sched.StaticBlock {
				t.Errorf("%v on one worker ran as %v, want staticBlock", kind, fc.Kind)
			}
			if fc.start != 0 {
				t.Errorf("%v on one worker read the clock", kind)
			}
			if got, _, _ := fc.Next(); got != sp {
				t.Errorf("the block of one worker is %v, want %v", got, sp)
			}
			if _, _, ok := fc.Next(); ok {
				t.Errorf("%v on one worker served a second sub-range", kind)
			}
			fc.EndFor()
		}
	})
}
