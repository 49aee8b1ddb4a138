package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"aomplib"
	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/parallel"
)

// The layer sheet: the unit cost of every module's public entry points,
// each timed from outside the same way — batches of calls, median batch,
// divided by the calls in it. A traced run prints the sheet next to the
// workload's counts, so that "how many" (rt.regions, rt.barrier_waits, …)
// and "how much each" (core.region_warm_ns, rt.barrier_phase_ns, …) come
// from one process on one host state, and a kernel delta can be bounded
// by count × unit cost before anybody opens a profile.

// perOp times reps batches of n calls of fn and returns the median batch's
// nanoseconds per call.
func perOp(n, reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for r := range ts {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		ts[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(ts)
}

func layerSheet(env *runEnv, rep *report) {
	n, reps := 200_000, 5
	if env.sc.quick {
		n, reps = 400, 3
	}
	t := env.width
	// weaver: the three states of a registered method.
	{
		p := aomplib.NewProgram("probe")
		var sink, hits int
		f := p.Class("A").Proc("m", func() { sink++ })
		rep.set("weaver.unwoven_call_ns", perOp(n, reps, f))
		p.Use(aomplib.Around("Count", "call(* A.m(..))", 10, false,
			func(c *aomplib.Call, proceed func(*aomplib.Call)) { hits++; proceed(c) }))
		p.MustWeave()
		rep.set("weaver.gated_call_ns", perOp(n, reps, f))
		if err := p.SetAdviceEnabled("Count", false); err != nil {
			panic(err)
		}
		rep.set("weaver.disabled_call_ns", perOp(n, reps, f))
		env.tally.check(hits == n*reps && sink == 3*n*reps, "probe: %d advised of %d calls", hits, sink)
	}

	// weaver + pointcut: a full weave of 512 methods under four wildcard
	// aspects — what set-up pays once per program.
	{
		p := aomplib.NewProgram("big")
		for i := 0; i < 512; i++ {
			p.Class(fmt.Sprintf("K%d", i/32)).Proc(fmt.Sprintf("m%d", i%32), func() {})
		}
		noop := func(c *aomplib.Call, proceed func(*aomplib.Call)) { proceed(c) }
		for i, pc := range []string{"call(* K*.m1*(..))", "call(* K3.*(..))",
			"within(K7) || call(* *.m5(..))", "call(void *.*(..)) && !within(K1*)"} {
			p.Use(aomplib.Around(fmt.Sprintf("W%d", i), pc, 10+i, false, noop))
		}
		ms := make([]float64, reps)
		for r := range ms {
			t0 := time.Now()
			p.MustWeave()
			ms[r] = time.Since(t0).Seconds() * 1e3
			p.Unweave()
		}
		rep.setSamples("weaver.full_weave_ms", ms)

		const src = "call(void Linpack.interchange(..)) || call(void Linpack.dscal(..))"
		rep.set("pointcut.parse_us", perOp(n/100+1, reps, func() { aomplib.MustParsePointcut(src) })/1e3)
		pc, jp := aomplib.MustParsePointcut(src), p.Method("K3.m5").JP()
		rep.set("pointcut.match_ns", perOp(n, reps, func() { pc.Matches(jp) }))
	}

	// gls: resolving the current worker from goroutine-local state.
	rt.Region(1, func(w *rt.Worker) {
		rep.set("gls.worker_lookup_ns", perOp(n, reps, func() {
			if rt.Current() != w {
				panic("probe: wrong worker")
			}
		}))
	})

	// core/rt/obs: region entry — warm, cold, and with each observer on.
	{
		p := aomplib.NewProgram("probe")
		f := p.Class("A").Proc("m", func() {})
		p.Use(aomplib.ParallelRegion("call(* A.m(..))").Threads(t))
		p.MustWeave()
		f()
		rn := n / 10
		rep.set("core.region_warm_ns", perOp(rn, reps, f))
		prevHot := aomplib.SetHotTeams(false)
		rep.set("rt.region_cold_ns", perOp(rn/4+1, reps, f))
		aomplib.SetHotTeams(prevHot)
		f()
		var withMetrics, withTrace []float64
		for r := 0; r < reps; r++ {
			off := perOp(rn, 1, f)
			prev := aomplib.EnableMetrics(true)
			withMetrics = append(withMetrics, perOp(rn, 1, f)/off)
			aomplib.EnableMetrics(prev)
			off = perOp(rn, 1, f)
			i := 0
			withTrace = append(withTrace, perOp(rn, 1, func() {
				// Fresh rings every 1024 entries, so this prices the record
				// path and not the cheaper buffer-full drop path.
				if i&1023 == 0 {
					aomplib.StartTrace()
				}
				i++
				f()
			})/off)
			aomplib.EnableTracing(false)
		}
		rep.setSamples("obs.metrics_region_ratio", withMetrics)
		rep.setSamples("obs.traced_region_ratio", withTrace)
	}

	// core: constructs per encounter inside an open region. Every worker
	// runs the encounters loop; the region's own entry is amortised over k
	// encounters.
	k := n / 100
	inRegion := func(deploy func(p *aomplib.Program), encounter func(cls *aomplib.Class) func()) float64 {
		p := aomplib.NewProgram("probe")
		cls := p.Class("A")
		enc := encounter(cls)
		run := cls.Proc("run", func() {
			for i := 0; i < k; i++ {
				enc()
			}
		})
		p.Use(aomplib.ParallelRegion("call(* A.run(..))").Threads(t))
		deploy(p)
		p.MustWeave()
		run()
		return perOp(1, reps, run) / float64(k)
	}
	forProbe := func(kind aomplib.Schedule, chunk int) float64 {
		return inRegion(
			func(p *aomplib.Program) {
				p.Use(aomplib.ForShare("call(* A.loop(..))").Schedule(kind).Chunk(chunk))
			},
			func(cls *aomplib.Class) func() {
				loop := cls.ForProc("loop", func(lo, hi, step int) {})
				return func() { loop(0, 4096, 1) }
			})
	}
	rep.set("core.for_static_ns", forProbe(aomplib.StaticBlock, 0))
	rep.set("core.for_cyclic_ns", forProbe(aomplib.StaticCyclic, 0))
	rep.set("core.for_dynamic_ns", forProbe(aomplib.Dynamic, 16))
	rep.set("core.for_guided_ns", forProbe(aomplib.Guided, 16))
	rep.set("core.for_steal_ns", forProbe(aomplib.Steal, 16))
	rep.set("core.for_adaptive_ns", forProbe(aomplib.Adaptive, 0))
	rep.set("core.single_ns", inRegion(
		func(p *aomplib.Program) { p.Use(aomplib.SingleSection("call(* A.once(..))")) },
		func(cls *aomplib.Class) func() { return cls.Proc("once", func() {}) }))
	var merged int64
	rep.set("core.reduce_ns", inRegion(
		func(p *aomplib.Program) {
			tl := aomplib.NewThreadLocal("call(* A.acc(..))", "acc").InitFresh(func() any { return new(int64) })
			p.Use(tl)
			p.Use(aomplib.ReducePoint("call(* A.merge(..))", tl, func(local any) { merged += *(local.(*int64)) }))
		},
		func(cls *aomplib.Class) func() {
			acc := cls.ValueProc("acc", func() any { return &merged })
			merge := cls.Proc("merge", func() {})
			return func() { *(acc().(*int64))++; merge() }
		}))
	{
		p := aomplib.NewProgram("probe")
		var sink int
		f := p.Class("A").Proc("m", func() { sink++ })
		p.Use(aomplib.CriticalSection("call(* A.m(..))"))
		p.MustWeave()
		rep.set("core.critical_ns", perOp(n, reps, f))
	}

	// rt: barrier round trip, task spawn+join, dependence chain.
	ts := make([]float64, reps)
	rt.Region(t, func(w *rt.Worker) {
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			for i := 0; i < k; i++ {
				w.Team.Barrier().WaitWorker(w)
			}
			if w.ID == 0 {
				ts[r] = float64(time.Since(t0).Nanoseconds()) / float64(k)
			}
		}
	})
	rep.setSamples("rt.barrier_phase_ns", ts)
	taskProbe := func(spawn func(body func())) float64 {
		var out float64
		rt.Region(t, func(w *rt.Worker) {
			if w.ID != 0 {
				return
			}
			body := func() {}
			i := 0
			out = perOp(k*10, reps, func() {
				spawn(body)
				if i++; i&63 == 0 {
					rt.TaskWait()
				}
			})
			rt.TaskWait()
		})
		return out
	}
	rep.set("rt.task_spawn_wait_ns", taskProbe(rt.Spawn))
	var cell int
	chain := rt.Deps{InOut: []any{&cell}}
	rep.set("rt.depend_chain_ns", taskProbe(func(body func()) { rt.SpawnDep(body, chain) }))

	// sched: resolving a schedule and drawing one chunk, uncontended.
	rep.set("sched.resolve_ns", perOp(n, reps, func() { sched.Resolve(sched.Auto, 4096, t) }))
	d := sched.NewDispenser(sched.Space{Lo: 0, Hi: 16 * n * reps, Step: 1}, 16, false, t)
	rep.set("sched.dispense_ns", perOp(n, reps, func() { d.Next() }))

	// parallel: entry cost of the generic layer, and a real algorithm.
	rep.set("parallel.for_entry_ns", perOp(n/10, reps, func() {
		parallel.For(0, t, func(int) {}, parallel.WithThreads(t))
	}))
	rep.set("parallel.reduce_entry_ns", perOp(n/10, reps, func() {
		parallel.Reduce(0, t, 0, func(lo, hi, acc int) int { return acc + hi - lo },
			func(a, b int) int { return a + b }, parallel.WithThreads(t))
	}))
	size := 1_000_000
	if env.sc.quick {
		size = 5000
	}
	rng := rand.New(rand.NewSource(env.seed))
	src := make([]int, size)
	for i := range src {
		src[i] = rng.Int()
	}
	xs := make([]int, size)
	sortMs := make([]float64, 3)
	for r := range sortMs {
		copy(xs, src)
		t0 := time.Now()
		parallel.Sort(xs, func(a, b int) bool { return a < b }, parallel.WithThreads(t))
		sortMs[r] = time.Since(t0).Seconds() * 1e3
	}
	env.tally.check(sort.IntsAreSorted(xs), "probe: parallel.Sort left the slice unsorted")
	rep.setSamples("parallel.sort_ms", sortMs)
}
