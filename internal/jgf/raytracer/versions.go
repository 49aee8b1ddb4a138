package raytracer

import (
	"aomplib/internal/core"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/jgfutil"
	"aomplib/internal/rt"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// Params sizes the benchmark.
type Params struct {
	// Width and Height are the image dimensions in pixels.
	Width, Height int
}

// JGF problem sizes (A renders 150², B 500²).
var (
	SizeA = Params{Width: 150, Height: 150}
	SizeB = Params{Width: 500, Height: 500}
	// SizeTest keeps unit tests fast.
	SizeTest = Params{Width: 48, Height: 48}
)

type seqInstance struct {
	p  Params
	rt *RayTracer
}

// NewSeq returns the sequential version.
func NewSeq(p Params) harness.Instance { return &seqInstance{p: p} }

func (in *seqInstance) Setup() { in.rt = NewTracer(in.p.Width, in.p.Height) }
func (in *seqInstance) Kernel() {
	var sum int64
	for y := 0; y < in.rt.height; y++ {
		sum += in.rt.RenderRow(y)
	}
	in.rt.AddChecksum(sum)
}
func (in *seqInstance) Validate() error { return in.rt.Validate() }

// Checksum exposes the image checksum for cross-version tests.
func (in *seqInstance) Checksum() int64 { return in.rt.Checksum() }

type mtInstance struct {
	p       Params
	threads int
	rt      *RayTracer
}

// NewMT returns the hand-threaded baseline: cyclic row distribution with a
// per-thread checksum folded in at the end, as the JGF Java-threads
// version does.
func NewMT(p Params, threads int) harness.Instance {
	return &mtInstance{p: p, threads: threads}
}

func (in *mtInstance) Setup() { in.rt = NewTracer(in.p.Width, in.p.Height) }
func (in *mtInstance) Kernel() {
	jgfutil.Run(in.threads, func(id int) {
		var local int64
		for y := id; y < in.rt.height; y += in.threads {
			local += in.rt.RenderRow(y)
		}
		in.rt.AddChecksum(local)
	})
}
func (in *mtInstance) Validate() error { return in.rt.Validate() }

// Checksum exposes the image checksum for cross-version tests.
func (in *mtInstance) Checksum() int64 { return in.rt.Checksum() }

type aompInstance struct {
	p       Params
	threads int
	rt      *RayTracer
	run     func()
	prog    *weaver.Program
}

// NewAomp returns the AOmpLib version: parallel region, cyclic for over
// rows, and a thread-local checksum field reduced at the end of the
// region (the TLF of Table 2).
func NewAomp(p Params, threads int) harness.Instance {
	return &aompInstance{p: p, threads: threads}
}

func (in *aompInstance) Setup() {
	in.rt = NewTracer(in.p.Width, in.p.Height)
	tracer := in.rt
	in.prog = weaver.NewProgram("RayTracer")
	prog := in.prog
	cls := prog.Class("RayTracer")

	// Thread-local checksum accessor (the @ThreadLocalField): sequentially
	// it hands out one shared accumulator cell.
	seqCell := new(int64)
	checksumAcc := cls.ValueProc("checksumAcc", func() any { return seqCell })

	render := cls.ForProc("renderRows", func(lo, hi, step int) {
		acc := checksumAcc().(*int64)
		for y := lo; y < hi; y += step {
			*acc += tracer.RenderRow(y)
		}
	})
	collect := cls.Proc("collect", func() {})
	in.run = cls.Proc("run", func() {
		render(0, tracer.height, 1)
		collect()
		if rt.ThreadID() == 0 {
			// Fold the sequential cell (non-zero only when unwoven).
			tracer.AddChecksum(*seqCell)
			*seqCell = 0
		}
	})

	csTL := core.NewThreadLocal("call(* RayTracer.checksumAcc(..))", "checksum").
		InitFresh(func() any { return new(int64) })
	prog.Use(core.ParallelRegion("call(* RayTracer.run(..))").Threads(in.threads))
	prog.Use(core.ForShare("call(* RayTracer.renderRows(..))").Schedule(sched.StaticCyclic))
	prog.Use(csTL)
	prog.Use(core.ReducePoint("call(* RayTracer.collect(..))", csTL, func(local any) {
		tracer.AddChecksum(*(local.(*int64)))
	}))
	prog.MustWeave()
}

func (in *aompInstance) Kernel()         { in.run() }
func (in *aompInstance) Validate() error { return in.rt.Validate() }

// Checksum exposes the image checksum for cross-version tests.
func (in *aompInstance) Checksum() int64 { return in.rt.Checksum() }

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompInstance) Program() *weaver.Program { return in.prog }
