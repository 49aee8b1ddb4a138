// Benchmarks regenerating the paper's Table 2 (§V), plus the overhead
// ablations backing §IV's "very low run-time overhead" claim and the
// alternatives DESIGN.md §10 lists as rejected.
//
//	go test -bench=Table2                    # Table 2 (weave introspection)
//	go test -bench=Overhead                  # §IV weaving/runtime overheads
//	go test -bench=Ablation                  # schedule/barrier ablations
//	go test -bench=Schedule_                 # SOR, LUFact, PageRank by schedule
//
// Figures 13 and 15 are cmd/jgfbench's and cmd/moldynstudy's, timed in
// paired rounds (perf/figure13.md, perf/figure15.md).
package aomplib_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname, for fixedRegionWidth

	"aomplib"
	"aomplib/internal/evolib"
	"aomplib/internal/graph"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/lufact"
	"aomplib/internal/jgf/sor"
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

// ----------------------------------------------- ablations (DESIGN §10) --

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

// benchSchedule times a woven Aomp kernel at its test size under one loop
// schedule, at full width: scripts/gates holds adaptive to at most 1.2× each
// hand-picked kind, so self-tuning is never the schedule to turn off. The
// kernel is woven once and its data reseeded, untimed, between iterations,
// so adaptive's per-construct state carries across kernels as it does in
// a long-running program, and the last kernel is validated.
func benchSchedule(b *testing.B, inst harness.Instance) {
	pinRegionWidth(b)
	inst.Setup()
	r := inst.(interface{ Reseed() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 {
			b.StopTimer()
			r.Reseed()
			b.StartTimer()
		}
		inst.Kernel()
	}
	b.StopTimer()
	if err := inst.Validate(); err != nil {
		b.Fatalf("validation: %v", err)
	}
}

func sorUnder(k sched.Kind) harness.Instance {
	p := sor.SizeTest
	p.Schedule = k
	return sor.NewAomp(p, threads())
}

func lufactUnder(k sched.Kind) harness.Instance {
	p := lufact.SizeTest
	p.Schedule = k
	return lufact.NewAomp(p, threads())
}

// pagerankInst is PageRank over serve-mix's graph (1500 vertices,
// power-law out-degrees, two iterations per kernel) woven once under one
// schedule of its vertex loop: the graph kernel serve-mix runs, beside
// the two JGF ones. Reseed puts the ranks back to uniform, so every kernel
// does the same work, and Validate checks the last one against the
// sequential run.
type pagerankInst struct {
	kind  sched.Kind
	chunk int
	g     *graph.Graph
	pr    *graph.PageRank
	run   func()
}

func pagerankUnder(k sched.Kind, chunk int) harness.Instance {
	return &pagerankInst{kind: k, chunk: chunk}
}

func (p *pagerankInst) Setup() {
	p.g = graph.NewPowerLaw(1500, 8, 1)
	p.pr = graph.NewPageRank(p.g, 0.85, 2)
	p.run, _ = graph.BuildAomp(p.pr, threads(), p.kind, p.chunk)
}

func (p *pagerankInst) Kernel() { p.run() }

func (p *pagerankInst) Reseed() {
	r := p.pr.Ranks()
	for v := range r {
		r[v] = 1 / float64(len(r))
	}
}

func (p *pagerankInst) Validate() error {
	want := graph.NewPageRank(p.g, 0.85, 2)
	want.RunSeq()
	for v, r := range p.pr.Ranks() {
		if math.Abs(r-want.Ranks()[v]) > 1e-12 {
			return fmt.Errorf("rank[%d] = %v, sequential %v", v, r, want.Ranks()[v])
		}
	}
	return nil
}

// Source order is run order: each Adaptive benchmark runs right after its
// static-block baseline, the tightest of its rows, so the two are timed a
// second apart. PageRank's dynamic and guided chunks are the ones
// serve-mix uses.
func BenchmarkSchedule_SOR_StaticBlock(b *testing.B) { benchSchedule(b, sorUnder(sched.StaticBlock)) }
func BenchmarkSchedule_SOR_Adaptive(b *testing.B)    { benchSchedule(b, sorUnder(sched.Adaptive)) }
func BenchmarkSchedule_SOR_Dynamic(b *testing.B)     { benchSchedule(b, sorUnder(sched.Dynamic)) }
func BenchmarkSchedule_LUFact_StaticBlock(b *testing.B) {
	benchSchedule(b, lufactUnder(sched.StaticBlock))
}
func BenchmarkSchedule_LUFact_Adaptive(b *testing.B) { benchSchedule(b, lufactUnder(sched.Adaptive)) }
func BenchmarkSchedule_LUFact_Dynamic(b *testing.B)  { benchSchedule(b, lufactUnder(sched.Dynamic)) }
func BenchmarkSchedule_PageRank_StaticBlock(b *testing.B) {
	benchSchedule(b, pagerankUnder(sched.StaticBlock, 0))
}
func BenchmarkSchedule_PageRank_Adaptive(b *testing.B) {
	benchSchedule(b, pagerankUnder(sched.Adaptive, 0))
}
func BenchmarkSchedule_PageRank_Dynamic(b *testing.B) {
	benchSchedule(b, pagerankUnder(sched.Dynamic, 64))
}
func BenchmarkSchedule_PageRank_Guided(b *testing.B) {
	benchSchedule(b, pagerankUnder(sched.Guided, 16))
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
