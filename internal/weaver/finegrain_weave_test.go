package weaver_test

import (
	"fmt"
	"testing"

	"aomplib/internal/core"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// finegrainProgram is the repository benchmark's finegrain program, as
// weaving sees it: the seven methods of its composite op under its eight
// core aspects, among 504 methods that no pointcut matches (511 in all,
// the benchmark's "program of 512").
func finegrainProgram() *weaver.Program {
	p := weaver.NewProgram("finegrain")
	cls := p.Class("Fine")
	total := 0.0
	cls.ValueProc("acc", func() any { return &total })
	cls.ForProc("loop", func(lo, hi, step int) {})
	for _, name := range []string{"reduce", "task", "single", "wait", "op"} {
		cls.Proc(name, func() {})
	}
	for i := 8; i < 512; i++ {
		p.Class(fmt.Sprintf("Lib%d", i/32)).Proc(fmt.Sprintf("m%d", i%32), func() {})
	}
	tl := core.NewThreadLocal("call(* Fine.acc(..))", "acc").InitFresh(func() any { return new(float64) })
	p.Use(core.ParallelRegion("call(* Fine.op(..))").Threads(2))
	p.Use(core.ForShare("call(* Fine.loop(..))").Schedule(sched.Dynamic).Chunk(16))
	p.Use(tl)
	p.Use(core.ReducePoint("call(* Fine.reduce(..))", tl, func(local any) { total += *local.(*float64) }))
	p.Use(core.BarrierAfterPoint("call(* Fine.reduce(..))"))
	p.Use(core.SingleSection("call(* Fine.single(..))"))
	p.Use(core.TaskSpawn("call(* Fine.task(..))"))
	p.Use(core.TaskWaitPoint("call(* Fine.wait(..))"))
	p.MustWeave()
	return p
}

// Weave reads each core aspect's bindings once, not once per method: an
// Unweave and a Weave of finegrain's program allocate the eight aspects'
// advice and the seven woven methods' chains, not an advice value per
// (aspect, method) pair — 15 357 allocations when every method read every
// aspect's bindings.
func TestFinegrainWeaveAllocs(t *testing.T) {
	p := finegrainProgram()
	if n := testing.AllocsPerRun(20, func() { p.Unweave(); p.MustWeave() }); n > 100 {
		t.Errorf("Unweave+Weave of finegrain's 511-method program allocates %v, want ≤ 100", n)
	}
}

// BenchmarkReconfigWeaveFinegrain is one Unweave and one Weave of
// finegrain's 511-method program under its eight core aspects.
func BenchmarkReconfigWeaveFinegrain(b *testing.B) {
	p := finegrainProgram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Unweave()
		p.MustWeave()
	}
}
