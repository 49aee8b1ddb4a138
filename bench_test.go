// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), plus the overhead ablations backing §IV's "very low run-time
// overhead" claim and the design decisions listed in DESIGN.md §6.
//
//	go test -bench=Figure13 -benchmem        # Figure 13 (JGF vs Aomp)
//	go test -bench=Figure15                  # Figure 15 (MolDyn strategies)
//	go test -bench=Table2                    # Table 2 (weave introspection)
//	go test -bench=Overhead                  # §IV weaving/runtime overheads
//	go test -bench=Ablation                  # schedule/barrier ablations
//
// Benchmark sizes are scaled for CI (seconds, not minutes); cmd/jgfbench
// and cmd/moldynstudy run the full paper sizes.
package aomplib_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname, for fixedRegionWidth

	"aomplib"
	"aomplib/internal/evolib"
	"aomplib/internal/graph"
	"aomplib/internal/jgf/crypt"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/lufact"
	"aomplib/internal/jgf/moldyn"
	"aomplib/internal/jgf/montecarlo"
	"aomplib/internal/jgf/raytracer"
	"aomplib/internal/jgf/series"
	"aomplib/internal/jgf/sor"
	"aomplib/internal/jgf/sparse"
	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

func threads() int { return runtime.GOMAXPROCS(0) }

// fixedRegionWidth is internal/core's fixedWidth: while set, regions woven
// run every entry at their requested width instead of learning to run an
// empty region on one worker. The facade offers no such switch.
//
//go:linkname fixedRegionWidth aomplib/internal/core.fixedWidth
var fixedRegionWidth bool

// pinRegionWidth sets fixedRegionWidth until the benchmark ends.
func pinRegionWidth(b *testing.B) {
	prev := fixedRegionWidth
	fixedRegionWidth = true
	b.Cleanup(func() { fixedRegionWidth = prev })
}

// emptyRegion weaves an empty region of threads() workers, pinned to that
// width, and returns its entry and a check, for after the timed loop, that
// an entry still forks the full team.
func emptyRegion(b *testing.B) (enter func(), checkWidth func()) {
	pinRegionWidth(b)
	var probe atomic.Bool
	var width atomic.Int32
	p := aomplib.NewProgram("bench")
	enter = p.Class("A").Proc("m", func() {
		if probe.Load() && aomplib.ThreadID() == 0 {
			width.Store(int32(aomplib.NumThreads()))
		}
	})
	p.Use(aomplib.ParallelRegion("call(* A.m(..))").Threads(threads()))
	p.MustWeave()
	return enter, func() {
		b.StopTimer()
		probe.Store(true)
		enter()
		if got := int(width.Load()); got != threads() {
			b.Fatalf("the region forked %d workers, want %d", got, threads())
		}
	}
}

// benchInstance measures inst.Kernel with per-iteration Setup excluded.
func benchInstance(b *testing.B, inst harness.Instance) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst.Setup()
		b.StartTimer()
		inst.Kernel()
	}
	b.StopTimer()
	if err := inst.Validate(); err != nil {
		b.Fatalf("validation: %v", err)
	}
}

// -------------------------------------------------- Figure 13 (E1) -----

// Bench sizes: large enough that kernels dominate, small enough for CI.
var (
	f13Series = series.Params{N: 1500}
	f13Crypt  = crypt.Params{N: 1_500_000}
	f13LUFact = lufact.Params{N: 350}
	f13SOR    = sor.Params{M: 500, N: 500, Iters: 60}
	f13Sparse = sparse.Params{N: 25_000, NZ: 125_000, Iters: 100}
	f13MolDyn = moldyn.Params{MM: 7, Moves: 8}
	f13MC     = montecarlo.Params{Runs: 3_000, Steps: 500}
	f13RT     = raytracer.Params{Width: 100, Height: 100}
)

func BenchmarkFigure13_Crypt_Seq(b *testing.B)  { benchInstance(b, crypt.NewSeq(f13Crypt)) }
func BenchmarkFigure13_Crypt_MT(b *testing.B)   { benchInstance(b, crypt.NewMT(f13Crypt, threads())) }
func BenchmarkFigure13_Crypt_Aomp(b *testing.B) { benchInstance(b, crypt.NewAomp(f13Crypt, threads())) }

func BenchmarkFigure13_LUFact_Seq(b *testing.B) { benchInstance(b, lufact.NewSeq(f13LUFact)) }
func BenchmarkFigure13_LUFact_MT(b *testing.B)  { benchInstance(b, lufact.NewMT(f13LUFact, threads())) }
func BenchmarkFigure13_LUFact_Aomp(b *testing.B) {
	benchInstance(b, lufact.NewAomp(f13LUFact, threads()))
}

func BenchmarkFigure13_Series_Seq(b *testing.B) { benchInstance(b, series.NewSeq(f13Series)) }
func BenchmarkFigure13_Series_MT(b *testing.B)  { benchInstance(b, series.NewMT(f13Series, threads())) }
func BenchmarkFigure13_Series_Aomp(b *testing.B) {
	benchInstance(b, series.NewAomp(f13Series, threads()))
}

// The Par rows run the generic-algorithms (package parallel) version of
// the kernel against the woven Aomp one: same base program, dispatch via
// parallel.ForRange instead of @For advice.
func BenchmarkFigure13_Series_Par(b *testing.B) {
	benchInstance(b, series.NewParallel(f13Series, threads()))
}

func BenchmarkFigure13_SOR_Seq(b *testing.B)  { benchInstance(b, sor.NewSeq(f13SOR)) }
func BenchmarkFigure13_SOR_MT(b *testing.B)   { benchInstance(b, sor.NewMT(f13SOR, threads())) }
func BenchmarkFigure13_SOR_Aomp(b *testing.B) { benchInstance(b, sor.NewAomp(f13SOR, threads())) }
func BenchmarkFigure13_SOR_Par(b *testing.B)  { benchInstance(b, sor.NewParallel(f13SOR, threads())) }

func BenchmarkFigure13_Sparse_Seq(b *testing.B) { benchInstance(b, sparse.NewSeq(f13Sparse)) }
func BenchmarkFigure13_Sparse_MT(b *testing.B)  { benchInstance(b, sparse.NewMT(f13Sparse, threads())) }
func BenchmarkFigure13_Sparse_Aomp(b *testing.B) {
	benchInstance(b, sparse.NewAomp(f13Sparse, threads()))
}

func BenchmarkFigure13_MolDyn_Seq(b *testing.B) { benchInstance(b, moldyn.NewSeq(f13MolDyn)) }
func BenchmarkFigure13_MolDyn_MT(b *testing.B)  { benchInstance(b, moldyn.NewMT(f13MolDyn, threads())) }
func BenchmarkFigure13_MolDyn_Aomp(b *testing.B) {
	benchInstance(b, moldyn.NewAomp(f13MolDyn, threads(), moldyn.ThreadLocalStrategy))
}

func BenchmarkFigure13_MonteCarlo_Seq(b *testing.B) { benchInstance(b, montecarlo.NewSeq(f13MC)) }
func BenchmarkFigure13_MonteCarlo_MT(b *testing.B) {
	benchInstance(b, montecarlo.NewMT(f13MC, threads()))
}
func BenchmarkFigure13_MonteCarlo_Aomp(b *testing.B) {
	benchInstance(b, montecarlo.NewAomp(f13MC, threads()))
}

func BenchmarkFigure13_RayTracer_Seq(b *testing.B) { benchInstance(b, raytracer.NewSeq(f13RT)) }
func BenchmarkFigure13_RayTracer_MT(b *testing.B) {
	benchInstance(b, raytracer.NewMT(f13RT, threads()))
}
func BenchmarkFigure13_RayTracer_Aomp(b *testing.B) {
	benchInstance(b, raytracer.NewAomp(f13RT, threads()))
}

// -------------------------------------------------- Figure 15 (E3) -----

func benchMolDynStrategy(b *testing.B, mm int, s moldyn.Strategy) {
	benchInstance(b, moldyn.NewAomp(moldyn.Params{MM: mm, Moves: 5}, threads(), s))
}

func BenchmarkFigure15_MolDyn_Critical_864(b *testing.B) {
	benchMolDynStrategy(b, 6, moldyn.CriticalStrategy)
}
func BenchmarkFigure15_MolDyn_Locks_864(b *testing.B) {
	benchMolDynStrategy(b, 6, moldyn.LockPerParticleStrategy)
}
func BenchmarkFigure15_MolDyn_ThreadLocal_864(b *testing.B) {
	benchMolDynStrategy(b, 6, moldyn.ThreadLocalStrategy)
}
func BenchmarkFigure15_MolDyn_JGF_864(b *testing.B) {
	benchInstance(b, moldyn.NewMT(moldyn.Params{MM: 6, Moves: 5}, threads()))
}
func BenchmarkFigure15_MolDyn_Critical_2048(b *testing.B) {
	benchMolDynStrategy(b, 8, moldyn.CriticalStrategy)
}
func BenchmarkFigure15_MolDyn_Locks_2048(b *testing.B) {
	benchMolDynStrategy(b, 8, moldyn.LockPerParticleStrategy)
}
func BenchmarkFigure15_MolDyn_ThreadLocal_2048(b *testing.B) {
	benchMolDynStrategy(b, 8, moldyn.ThreadLocalStrategy)
}
func BenchmarkFigure15_MolDyn_JGF_2048(b *testing.B) {
	benchInstance(b, moldyn.NewMT(moldyn.Params{MM: 8, Moves: 5}, threads()))
}

// ---------------------------------------------------- Table 2 (E2) -----

// BenchmarkTable2_WeaveIntrospection measures building + weaving + report
// generation for a full benchmark program (the Table 2 pipeline), showing
// weaving itself is cheap enough to do at load time.
func BenchmarkTable2_WeaveIntrospection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := lufact.NewAomp(lufact.SizeTest, 2)
		inst.Setup()
		rep := inst.(interface{ Program() *weaver.Program }).Program().Report()
		if len(rep) == 0 {
			b.Fatal("empty report")
		}
	}
}

// ------------------------------------------------- §IV overheads (E4) --

// directCall is package-level so the compiler cannot inline the baseline's
// call away: the layer budget is a ratio to a call, not to an increment.
var directCall func()

// BenchmarkOverhead_DirectCall is the baseline: a plain closure call. CI
// gates the unplugged paths (UnwovenMethod, RegionEntryDisabled) at ≤ 6×
// this number.
func BenchmarkOverhead_DirectCall(b *testing.B) {
	var sink int
	directCall = func() { sink++ }
	for i := 0; i < b.N; i++ {
		directCall()
	}
	_ = sink
}

// BenchmarkOverhead_UnwovenMethod measures a registered but unadvised
// method — the cost of keeping sequential semantics available: one atomic
// chain load and a branch in front of the body.
func BenchmarkOverhead_UnwovenMethod(b *testing.B) {
	p := aomplib.NewProgram("bench")
	var sink int
	f := p.Class("A").Proc("m", func() { sink++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	_ = sink
}

// BenchmarkOverhead_WovenNoWorker measures a woven method whose advice
// does not need the worker context (e.g. critical sections).
func BenchmarkOverhead_WovenNoWorker(b *testing.B) {
	p := aomplib.NewProgram("bench")
	var sink int
	f := p.Class("A").Proc("m", func() { sink++ })
	p.Use(aomplib.CriticalSection("call(* A.m(..))"))
	p.MustWeave()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	_ = sink
}

// BenchmarkOverhead_WorkerLookupInRegion measures the goroutine-identity
// resolution that worker-dependent advice pays per call inside a region —
// the substitution cost for Java's JIT-inlined ThreadLocal (see
// EXPERIMENTS.md, LUFact deviation).
func BenchmarkOverhead_WorkerLookupInRegion(b *testing.B) {
	rt.Region(1, func(w *rt.Worker) {
		for i := 0; i < b.N; i++ {
			if rt.Current() != w {
				b.Fatal("wrong worker")
			}
		}
	})
}

// BenchmarkOverhead_RegionEntry measures region entry+join (paper Fig. 9)
// on the warm path: hot teams (the default) lease a pooled team, so the
// steady state must stay at 0 allocs/op — a CI gate.
func BenchmarkOverhead_RegionEntry(b *testing.B) {
	f, checkWidth := emptyRegion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	checkWidth()
}

// BenchmarkOverhead_RegionEntryDisabled measures the same entry with the
// region advice disabled: the re-swapped chain is direct, so the cost
// must match an unadvised method — reconfiguration without unweaving.
func BenchmarkOverhead_RegionEntryDisabled(b *testing.B) {
	p := aomplib.NewProgram("bench")
	f := p.Class("A").Proc("m", func() {})
	p.Use(aomplib.ParallelRegion("call(* A.m(..))").Threads(threads()))
	p.MustWeave()
	if err := p.SetAdviceEnabled("ParallelRegion", false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
}

// BenchmarkOverhead_RegionEntryCold is the same entry with hot teams off:
// team, workers and goroutines are built and discarded per entry — the
// pre-pool behaviour the warm path is measured against.
func BenchmarkOverhead_RegionEntryCold(b *testing.B) {
	prev := aomplib.SetHotTeams(false)
	defer aomplib.SetHotTeams(prev)
	f, checkWidth := emptyRegion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	checkWidth()
}

// BenchmarkOverhead_RegionEntryTraced is the warm entry with the runtime
// tracer installed and recording — the CI gate asserting that enabling
// observability adds no allocations to the facade region-entry path (the
// emit points write fixed-size records into preallocated ring buffers).
func BenchmarkOverhead_RegionEntryTraced(b *testing.B) {
	aomplib.StartTrace()
	defer aomplib.EnableTracing(false)
	f, checkWidth := emptyRegion(b)
	f() // warm team + register trace rings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1023 == 0 {
			// Reset the rings periodically so the gate measures the record
			// path, not (mostly) the cheaper buffer-full drop path.
			aomplib.StartTrace()
		}
		f()
	}
	checkWidth()
}

// BenchmarkOverhead_RegionEntryMetrics is the warm entry with the
// always-on metrics registry recording — the CI gate asserting that
// production telemetry adds no allocations to the facade region-entry
// path (the record path is preallocated padded atomics).
func BenchmarkOverhead_RegionEntryMetrics(b *testing.B) {
	prev := aomplib.EnableMetrics(true)
	defer aomplib.EnableMetrics(prev)
	f, checkWidth := emptyRegion(b)
	f() // warm team + allocate metric shards
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	checkWidth()
}

// BenchmarkOverhead_CriticalNamed measures a steady-state woven
// @Critical(id=...) entry. The advice resolves the named lock once at
// weave time and caches it in the binding, so per-entry cost is one
// pointer load plus the lock round trip — the registry (sharded, see
// internal/rt/locks.go) is never touched here, and the path must stay
// allocation-free.
func BenchmarkOverhead_CriticalNamed(b *testing.B) {
	p := aomplib.NewProgram("bench")
	var sink int
	f := p.Class("A").Proc("m", func() { sink++ })
	p.Use(aomplib.CriticalSection("call(* A.m(..))").ID("shared"))
	p.MustWeave()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f()
	}
	_ = sink
}

// BenchmarkOverhead_PointcutMatch measures pointcut evaluation (weave-time
// cost only; never paid at run time).
func BenchmarkOverhead_PointcutMatch(b *testing.B) {
	pc := aomplib.MustParsePointcut("call(void Linpack.interchange(..)) || call(void Linpack.dscal(..))")
	p := aomplib.NewProgram("bench")
	p.Class("Linpack").Proc("dscal", func() {})
	jp := p.Method("Linpack.dscal").JP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Matches(jp)
	}
}

// ------------------------------------------------ ablations (DESIGN §6) --

// imbalancedLoop builds a region+for program over a triangular workload
// (cost of iteration i proportional to n-i), the shape of LUFact's
// elimination and MolDyn's force rows.
func benchScheduleAblation(b *testing.B, kind sched.Kind, chunk int) {
	const n = 2048
	pinRegionWidth(b)
	p := aomplib.NewProgram("bench")
	var sink float64
	loop := p.Class("A").ForProc("loop", func(lo, hi, step int) {
		local := 0.0
		for i := lo; i < hi; i += step {
			for j := i; j < n; j++ {
				local += float64(j)
			}
		}
		_ = local
	})
	width := 0
	run := p.Class("A").Proc("run", func() {
		if aomplib.ThreadID() == 0 {
			width = aomplib.NumThreads()
		}
		loop(0, n, 1)
	})
	p.Use(aomplib.ParallelRegion("call(* A.run(..))").Threads(threads()))
	p.Use(aomplib.ForShare("call(* A.loop(..))").Schedule(kind).Chunk(chunk))
	p.MustWeave()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	if width != threads() {
		b.Fatalf("the region ran %d workers, want %d", width, threads())
	}
	_ = sink
}

func BenchmarkAblation_Schedule_StaticBlock(b *testing.B) {
	benchScheduleAblation(b, sched.StaticBlock, 0)
}
func BenchmarkAblation_Schedule_StaticCyclic(b *testing.B) {
	benchScheduleAblation(b, sched.StaticCyclic, 0)
}
func BenchmarkAblation_Schedule_Dynamic16(b *testing.B) {
	benchScheduleAblation(b, sched.Dynamic, 16)
}
func BenchmarkAblation_Schedule_Guided(b *testing.B) {
	benchScheduleAblation(b, sched.Guided, 1)
}
func BenchmarkAblation_Schedule_Steal(b *testing.B) {
	benchScheduleAblation(b, sched.Steal, 16)
}

// BenchmarkAblation_Barrier measures the team barrier round trip.
func BenchmarkAblation_Barrier(b *testing.B) {
	rt.Region(threads(), func(w *rt.Worker) {
		for i := 0; i < b.N; i++ {
			w.Team.Barrier().Wait()
		}
	})
}

// BenchmarkAblation_ConstructInstance measures the per-encounter
// bookkeeping of work-sharing constructs: b.N encounters of one construct,
// keyed by pointer as the aspects key theirs, each met by both workers of
// the team. ns/op is the team's time per encounter (CI holds it within
// 1.4x Ablation_CompositeOpHandSolo); ns/worker-encounter is one worker's
// side of it.
func BenchmarkAblation_ConstructInstance(b *testing.B) {
	b.ReportAllocs()
	const workers = 2
	key := new(int)
	rt.Region(workers, func(w *rt.Worker) {
		sp := sched.Space{Lo: 0, Hi: 100, Step: 1}
		for i := 0; i < b.N; i++ {
			fc := rt.BeginFor(w, key, sp, sched.StaticBlock, 1, nil)
			fc.EndFor()
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*workers), "ns/worker-encounter")
}

// BenchmarkAblation_CompositeOp is the fine-grain composite the repo
// benchmark's finegrain workload enters 2000 times a batch — region → @For
// (dynamic,16) over a thread-local accumulator → @Reduce + barrier →
// @Single → two @Task → @TaskWait — with empty bodies and an initialiser
// that hands out preallocated cells, so allocs/op are the library's own
// (CI holds them at 0; task spawns alone were 4 before rt.SpawnArg).
func BenchmarkAblation_CompositeOp(b *testing.B) { benchCompositeOp(b, 2, true) }

// BenchmarkAblation_CompositeOpSolo is the composite op on a region pinned
// at Threads(1): each entry leases a pooled team of one from the hot-team
// pool (not a width record's own team; CompositeOpNarrowed runs that one).
// The loop is one static block, the barrier completes on arrival and the
// single claims without an encounter slot. CI holds it at 0 allocs/op and
// under a fraction of CompositeOp.
func BenchmarkAblation_CompositeOpSolo(b *testing.B) { benchCompositeOp(b, 1, true) }

// BenchmarkAblation_CompositeOpNarrowed is the composite op as finegrain
// runs it: Threads(2), width unpinned, warmed until the region's width
// record has learned that one worker is faster, so entries run on the
// record's own team of one. It reports the share of ops that ran narrow;
// scripts/gates holds every timed run at ≥ 0.98 — full-width probes of the
// losing arm back off to one entry in 1024, and one disturbed sample must
// not undo that — and at 0 allocs/op, within a margin of
// CompositeOpHandSolo.
func BenchmarkAblation_CompositeOpNarrowed(b *testing.B) {
	narrow := benchCompositeOp(b, 2, false)
	b.ReportMetric(float64(narrow)/float64(b.N), "narrow-share")
}

// benchCompositeOp times the composite op on a region of the given width,
// pinned or left to its width record, and returns how many timed ops ran
// on one worker.
func benchCompositeOp(b *testing.B, threads int, pin bool) (narrow int) {
	if pin {
		pinRegionWidth(b)
	}
	p := aomplib.NewProgram("bench")
	cls := p.Class("A")
	var total float64
	width := 0
	cells := [2]any{new(float64), new(float64)}
	acc := cls.ValueProc("acc", func() any { return &total })
	loop := cls.ForProc("loop", func(lo, hi, step int) { *(acc().(*float64)) += float64(hi - lo) })
	reduce := cls.Proc("reduce", func() {})
	task := cls.Proc("task", func() {})
	single := cls.Proc("single", func() {
		if width = aomplib.NumThreads(); width == 1 {
			narrow++
		}
		task()
		task()
	})
	wait := cls.Proc("wait", func() {})
	op := cls.Proc("op", func() { loop(0, 1024, 1); reduce(); single(); wait() })
	tl := aomplib.NewThreadLocal("call(* A.acc(..))", "acc").
		InitFresh(func() any { c := cells[aomplib.ThreadID()]; *(c.(*float64)) = 0; return c })
	p.Use(aomplib.ParallelRegion("call(* A.op(..))").Threads(threads))
	p.Use(aomplib.ForShare("call(* A.loop(..))").Schedule(aomplib.Dynamic).Chunk(16))
	p.Use(tl, aomplib.ReducePoint("call(* A.reduce(..))", tl, func(local any) { total += *(local.(*float64)) }))
	p.Use(aomplib.BarrierAfterPoint("call(* A.reduce(..))"))
	p.Use(aomplib.SingleSection("call(* A.single(..))"))
	p.Use(aomplib.TaskSpawn("call(* A.task(..))"), aomplib.TaskWaitPoint("call(* A.wait(..))"))
	p.MustWeave()
	warm := 1
	if !pin {
		warm = 4096 // long enough for the probe schedule to back off fully
	}
	for i := 0; i < warm; i++ {
		op()
	}
	total, narrow = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	if total != 1024*float64(b.N) {
		b.Fatalf("reduced %v over %d ops, want %v", total, b.N, 1024*float64(b.N))
	}
	if pin && width != threads {
		b.Fatalf("the op ran %d workers, want %d", width, threads)
	}
	return narrow
}

// BenchmarkAblation_CompositeOpHandSolo is the composite op written by
// hand for one goroutine, the best hand-threaded code at this grain: the
// same bodies — the loop body called once over the whole range into a
// local accumulator, the reduce under a mutex, the single inline — and
// the two tasks on their own goroutines, joined by a WaitGroup. It is the
// yardstick CompositeOpNarrowed is gated against.
func BenchmarkAblation_CompositeOpHandSolo(b *testing.B) {
	var (
		total float64
		mu    sync.Mutex
		wg    sync.WaitGroup
	)
	loop := func(acc *float64, lo, hi, step int) { *acc += float64(hi - lo) }
	task := func() { wg.Done() }
	op := func() {
		var local float64
		loop(&local, 0, 1024, 1)
		mu.Lock()
		total += local
		mu.Unlock()
		wg.Add(2)
		go task()
		go task()
		wg.Wait()
	}
	op()
	total = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	if total != 1024*float64(b.N) {
		b.Fatalf("reduced %v over %d ops, want %v", total, b.N, 1024*float64(b.N))
	}
}

// ----------------------------------------- §VII extensions (E7/E8) -----

// BenchmarkExtension_PageRank_* compares schedules on the skewed
// power-law graph — the irregular-algorithm study of the paper's current
// work, where dynamic/guided should beat static block.
func benchPageRank(b *testing.B, kind sched.Kind, chunk int) {
	g := graph.NewPowerLaw(20_000, 10, 2013)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pr := graph.NewPageRank(g, 0.85, 10)
		run, _ := graph.BuildAomp(pr, threads(), kind, chunk)
		b.StartTimer()
		run()
	}
}

func BenchmarkExtension_PageRank_StaticBlock(b *testing.B) {
	benchPageRank(b, sched.StaticBlock, 0)
}
func BenchmarkExtension_PageRank_Dynamic(b *testing.B) {
	benchPageRank(b, sched.Dynamic, 64)
}
func BenchmarkExtension_PageRank_Guided(b *testing.B) {
	benchPageRank(b, sched.Guided, 16)
}

// BenchmarkExtension_Evolution measures one aspect-woven GA run (JECoLi
// case study).
func BenchmarkExtension_Evolution(b *testing.B) {
	cfg := evolib.Config{
		PopSize: 120, GenomeLen: 16, Generations: 10,
		TournamentK: 3, CrossoverRate: 0.9,
		MutationRate: 0.08, MutationSigma: 0.25, Elite: 4,
		Seed: 7, LowerBound: -5.12, UpperBound: 5.12,
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ga, err := evolib.New(cfg, evolib.Rastrigin)
		if err != nil {
			b.Fatal(err)
		}
		run, _ := evolib.BuildAomp(ga, threads())
		b.StartTimer()
		run()
	}
}
