package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"aomplib/internal/obs"
	"aomplib/internal/sched"
)

// adaptResolve drives the resolver the way forShared.init does.
func adaptResolve(t *Team, key any, _ sched.Kind, n, chunk int) (sched.Kind, int, *loopAdapt) {
	st := &t.construct(key).adapt
	k, c := st.resolve(t.Size, n, chunk)
	return k, c, st
}

// forceMeasurable makes the resolver trust measured imbalance regardless
// of how many CPUs the test machine has, so the feedback-policy tests
// exercise the re-tuning paths even on single-CPU runners.
func forceMeasurable(t *testing.T) {
	t.Helper()
	prev := adaptMeasurable
	adaptMeasurable = func(int) bool { return true }
	t.Cleanup(func() { adaptMeasurable = prev })
}

// TestAdaptResolvePolicy pins the feedback policy state machine: first
// sight tunes from shape, a skewed encounter moves to steal and then
// refines the chunk, a balanced one coarsens it (capped), and the
// hysteresis band changes nothing.
func TestAdaptResolvePolicy(t *testing.T) {
	defer resetPool(t)()
	forceMeasurable(t)
	team := captureTeam(4)
	const n = 1024
	key := "policy-loop"

	k, c, st := adaptResolve(team, key, sched.Adaptive, n, 0)
	if k != sched.Guided || c != 0 {
		t.Fatalf("first sight resolved to %v chunk %d, want shape rule guided chunk 0", k, c)
	}

	st.publish(2.0) // skewed → upgrade to steal at the default grain
	k2, c2, _ := adaptResolve(team, key, sched.Adaptive, n, 0)
	if k2 != sched.Steal || c2 != adaptDefaultChunk(n, 4) {
		t.Fatalf("skewed re-encounter: %v chunk %d, want Steal chunk %d", k2, c2, adaptDefaultChunk(n, 4))
	}

	st.publish(2.0) // still skewed while balancing → refine grain
	if k3, c3, _ := adaptResolve(team, key, sched.Adaptive, n, 0); k3 != sched.Steal || c3 != c2/2 {
		t.Fatalf("second skewed re-encounter: %v chunk %d, want Steal chunk %d", k3, c3, c2/2)
	}

	st.publish(1.0) // balanced after skew → coarsen, bounded by n/(2*Size)
	if _, c4, _ := adaptResolve(team, key, sched.Adaptive, n, 0); c4 != c2 {
		t.Fatalf("balanced re-encounter chunk %d, want doubled back to %d", c4, c2)
	}

	st.publish(1.15) // hysteresis band → keep
	if k5, c5, _ := adaptResolve(team, key, sched.Adaptive, n, 0); k5 != sched.Steal || c5 != c2 {
		t.Fatalf("hysteresis re-encounter: %v chunk %d, want unchanged Steal %d", k5, c5, c2)
	}

	// A reshaped loop (new trip count) re-tunes from shape, not stale state.
	st.publish(2.0)
	if k6, c6, _ := adaptResolve(team, key, sched.Adaptive, 4*n, 0); k6 != sched.Guided || c6 != 0 {
		t.Fatalf("reshaped loop resolved to %v chunk %d, want fresh shape rule guided", k6, c6)
	}
}

// TestAdaptFirstSightShapeRule pins the shape rule a loop's first
// encounter (or first after a reshape) resolves by: static by blocks below
// shapeGuidedMin iterations per worker — empty and single-iteration loops
// and one iteration per worker included, dispensing can never pay there —
// guided from the first count that clears it, and static by blocks at any
// count on a team whose imbalance is unmeasurable. The declared chunk
// passes through.
func TestAdaptFirstSightShapeRule(t *testing.T) {
	defer resetPool(t)()
	cases := []struct {
		size, n    int
		measurable bool
		want       sched.Kind
	}{
		{8, 0, true, sched.StaticBlock},
		{8, 1, true, sched.StaticBlock},
		{8, 8, true, sched.StaticBlock}, // n == team size
		{8, 8*shapeGuidedMin - 1, true, sched.StaticBlock},
		{8, 8 * shapeGuidedMin, true, sched.Guided},
		{4, 10, true, sched.StaticBlock},
		{4, 4*shapeGuidedMin - 1, true, sched.StaticBlock},
		{4, 4 * shapeGuidedMin, true, sched.Guided},
		{2, 1 << 20, true, sched.Guided},
		{4, 1 << 20, false, sched.StaticBlock},
	}
	prev := adaptMeasurable
	t.Cleanup(func() { adaptMeasurable = prev })
	for i, c := range cases {
		adaptMeasurable = func(int) bool { return c.measurable }
		team := captureTeam(c.size)
		if k, chunk, _ := adaptResolve(team, i, sched.Adaptive, c.n, 7); k != c.want || chunk != 7 {
			t.Errorf("size=%d n=%d measurable=%v: first sight %v chunk %d, want %v chunk 7",
				c.size, c.n, c.measurable, k, chunk, c.want)
		}
	}
}

// TestAdaptResolveAutoUpgrades pins Auto as Adaptive's former name: a loop
// declared Auto runs through the construct's adaptive state — its first
// sight keeps the shape rule, a measured skewed re-encounter upgrades it to
// steal, and a balanced one keeps it there — and through ForSpan every
// encounter lands in that state.
func TestAdaptResolveAutoUpgrades(t *testing.T) {
	defer resetPool(t)()
	forceMeasurable(t)
	team := captureTeam(4)
	const n = 4096
	key := "auto-loop"

	k, _, st := adaptResolve(team, key, sched.Auto, n, 0)
	if k != sched.Guided {
		t.Fatalf("Auto first sight resolved to %v, want shape rule guided", k)
	}
	st.publish(3.0)
	if k2, _, _ := adaptResolve(team, key, sched.Auto, n, 0); k2 != sched.Steal {
		t.Fatalf("Auto after measured imbalance resolved to %v, want Steal", k2)
	}
	st.publish(1.0)
	if k3, _, _ := adaptResolve(team, key, sched.Auto, n, 0); k3 != sched.Steal {
		t.Fatalf("balanced Auto re-encounter fell back to %v, want to keep Steal", k3)
	}

	var ran *Team
	for r := 0; r < 3; r++ {
		hits := make([]int32, n)
		ptr := &hits
		Region(2, func(w *Worker) {
			if w.ID == 0 {
				ran = w.Team
			}
			ForSpan(w, sched.Space{Lo: 0, Hi: n, Step: 1}, sched.Auto, "auto-span", 0, countSpan, ptr)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: iteration %d executed %d times", r, i, h)
			}
		}
	}
	if got := ran.construct("auto-span").adapt.rounds; got != 3 {
		t.Fatalf("Auto loop reached its adaptive state %d times in 3 encounters", got)
	}
}

// TestConstructTableBounded pins the runaway-key guard: a team that met
// more distinct constructs than maxConstructs drops the table at its next
// lease instead of growing (and scanning) it without bound — and still
// serves constructs, old and new, afterwards.
func TestConstructTableBounded(t *testing.T) {
	defer resetPool(t)()
	var team *Team
	for lease := 0; lease < 3; lease++ {
		Region(2, func(w *Worker) {
			if w.ID == 0 {
				team = w.Team
			}
			for i := 0; i < maxConstructs; i++ {
				SingleBegin(w, lease*maxConstructs+i, false)
			}
		})
		if p := team.PendingInstances(); p != 0 {
			t.Fatalf("lease %d: %d slots pending", lease, p)
		}
	}
	if size := len(team.records); size > 2*maxConstructs {
		t.Fatalf("construct table grew to %d records, bound is %d per lease", size, maxConstructs)
	}
	for _, w := range team.workers {
		if len(w.cursors) > 2*maxConstructs {
			t.Fatalf("worker %d keeps %d cursors", w.ID, len(w.cursors))
		}
	}
}

// adaptSpanCount is a SpanFunc that counts iterations into a *[n]int32
// style slice via arg.
func countSpan(sub sched.Space, arg any) {
	hits := arg.(*[]int32)
	for i := 0; i < sub.Count(); i++ {
		(*hits)[sub.At(i)]++
	}
}

// TestHotTeamAdaptiveStatePersistsAcrossLeases pins the tentpole wiring
// end to end: an Adaptive for construct keyed the same way re-encounters
// its state on the hot team across region entries — the state's round
// counter advances and the loop keeps covering every iteration exactly
// once while re-tuning.
func TestHotTeamAdaptiveStatePersistsAcrossLeases(t *testing.T) {
	defer resetPool(t)()
	const n, rounds = 512, 5
	key := "persist-loop"
	var team *Team
	for r := 0; r < rounds; r++ {
		hits := make([]int32, n)
		ptr := &hits
		Region(4, func(w *Worker) {
			if w.ID == 0 {
				team = w.Team
			}
			ForSpan(w, sched.Space{Lo: 0, Hi: n, Step: 1}, sched.Adaptive, key, 0, countSpan, ptr)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: iteration %d executed %d times", r, i, h)
			}
		}
	}
	st := &team.construct(key).adapt
	if st.rounds != rounds {
		t.Fatalf("state observed %d rounds, want %d — leases dropped encounters", st.rounds, rounds)
	}
}

// TestAdaptResolveBalancedDowngradesToStatic pins the downgrade path: a
// loop whose shape heuristic picked a dispensing schedule (here Guided)
// and that measures balanced — without ever having been skewed — drops
// to static dispatch, and upgrades to steal the moment skew appears.
func TestAdaptResolveBalancedDowngradesToStatic(t *testing.T) {
	defer resetPool(t)()
	forceMeasurable(t)
	team := captureTeam(4)
	key := "balanced-loop"
	k, _, st := adaptResolve(team, key, sched.Adaptive, 1024, 0)
	if k != sched.Guided {
		t.Fatalf("first sight of a 1024-trip loop resolved to %v, want shape heuristic Guided", k)
	}
	st.publish(1.0)
	if k, _, _ := adaptResolve(team, key, sched.Adaptive, 1024, 0); k != sched.StaticBlock {
		t.Fatalf("balanced never-skewed loop resolved to %v, want StaticBlock", k)
	}
	st.publish(2.0)
	if k, _, _ := adaptResolve(team, key, sched.Adaptive, 1024, 0); k != sched.Steal {
		t.Fatalf("skew on a downgraded loop resolved to %v, want Steal", k)
	}
	// Once skewed, balanced re-encounters must NOT flip back to static —
	// that would oscillate under asymmetry.
	st.publish(1.0)
	if k, _, _ := adaptResolve(team, key, sched.Adaptive, 1024, 0); k != sched.Steal {
		t.Fatalf("balanced once-skewed loop resolved to %v, want to stay Steal", k)
	}
}

// TestAdaptResolveUnmeasurableKeepsState pins the measurability guard:
// when the team time-shares fewer CPUs than it has workers, per-share
// wall times read as massive imbalance on perfectly balanced loops, so
// the resolver must ignore the signal and keep its last resolution
// instead of converging every loop onto fine-grained stealing.
func TestAdaptResolveUnmeasurableKeepsState(t *testing.T) {
	defer resetPool(t)()
	prev := adaptMeasurable
	adaptMeasurable = func(int) bool { return false }
	t.Cleanup(func() { adaptMeasurable = prev })
	team := captureTeam(4)
	key := "unmeasurable-loop"
	k, c, st := adaptResolve(team, key, sched.Adaptive, 1024, 0)
	if k != sched.StaticBlock {
		t.Fatalf("oversubscribed first sight resolved to %v, want cheapest dispatch StaticBlock", k)
	}
	st.publish(3.9) // time-sharing artifact, not real imbalance
	if k2, c2, _ := adaptResolve(team, key, sched.Adaptive, 1024, 0); k2 != k || c2 != c {
		t.Fatalf("unmeasurable re-encounter re-tuned to %v chunk %d from %v chunk %d", k2, c2, k, c)
	}
}

// TestHotTeamAdaptiveChurnStress hammers encounter-state reuse across
// lease/retire churn: concurrent regions each running an Adaptive loop
// under its own key while the pool is resized and toggled underneath.
// Runs under -race in CI (the HotTeam test pattern); correctness here is
// exactly-once coverage and no data race on the shared adapt maps.
func TestHotTeamAdaptiveChurnStress(t *testing.T) {
	defer resetPool(t)()
	prevSize := SetPoolSize(2)
	defer SetPoolSize(prevSize)
	const goroutines, repeats, n = 4, 8, 256
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := g // distinct construct identity per goroutine
			for r := 0; r < repeats; r++ {
				hits := make([]int32, n)
				ptr := &hits
				Region(3, func(w *Worker) {
					ForSpan(w, sched.Space{Lo: 0, Hi: n, Step: 1}, sched.Adaptive, key, 0, countSpan, ptr)
				})
				for i, h := range hits {
					if h != 1 {
						select {
						case errs <- "iteration executed wrong number of times":
						default:
						}
						_ = i
						return
					}
				}
			}
		}(g)
	}
	churn := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-churn:
				return
			default:
			}
			SetPoolSize(1 + i%4)
			SetHotTeams(i%8 != 7) // brief cold windows retire teams mid-run
			runtime.Gosched()     // keep the churn loop from starving workers
		}
	}()
	wg.Wait()
	close(churn)
	SetHotTeams(true)
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestWorkerRatesAndStealProbes drives every concrete kind through
// BeginFor/Next/EndFor on each worker of a fresh team: every iteration runs
// exactly once, a static worker runs exactly its share, no encounter of a
// concrete kind reads the clock (only adaptive ones time their shares), and
// a steal loop feeds the registry's probes-per-steal counter.
func TestWorkerRatesAndStealProbes(t *testing.T) {
	prevM := obs.EnableMetrics(true)
	defer obs.EnableMetrics(prevM)
	const n, width = 4096, 4
	sp := sched.Space{Lo: 0, Hi: n, Step: 1}
	// A custom schedule of three parts, the middle one empty.
	reversedHalves := func(id, nthreads int, sp sched.Space) []sched.Space {
		b := sched.Block(sp, nthreads, nthreads-1-id)
		h := b.Count() / 2
		return []sched.Space{b.Slice(0, h), b.Slice(h, h), b.Slice(h, b.Count())}
	}
	kinds := []sched.Kind{sched.StaticBlock, sched.StaticCyclic, sched.Dynamic, sched.Guided, sched.Steal, sched.Custom}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			defer resetPool(t)()
			var custom sched.ScheduleFunc
			if kind == sched.Custom {
				custom = reversedHalves
			}
			before := obs.ReadMetrics()
			hits := make([]atomic.Int32, n)
			Region(width, func(w *Worker) {
				fc := BeginFor(w, "rates-loop", sp, kind, 4, custom)
				if fc.start != 0 {
					t.Errorf("worker %d: a %v encounter read the clock", w.ID, kind)
				}
				ran := 0
				for sub, c, ok := fc.Next(); ok; sub, c, ok = fc.Next() {
					for i := 0; i < c; i++ {
						hits[sub.At(i)].Add(1)
					}
					ran += c
				}
				if kind == sched.StaticBlock || kind == sched.StaticCyclic {
					if share := staticShare(sp, kind, width, w.ID).Count(); ran != share {
						t.Errorf("worker %d ran %d iterations, its static share is %d", w.ID, ran, share)
					}
				}
				fc.EndFor()
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("iteration %d ran %d times", i, h)
				}
			}
			if kind == sched.Steal && obs.ReadMetrics().StealProbes == before.StealProbes {
				t.Error("steal loop recorded no steal probes")
			}
		})
	}
}
