package moldyn

import (
	"aomplib/internal/core"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/jgfutil"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// Strategy selects the dependence-management approach for the symmetric
// force updates — the three parallelisations Figure 15 compares.
type Strategy int

// Strategies of Figure 15.
const (
	// ThreadLocalStrategy replicates the force buffer per thread and
	// reduces after the force loop (the JGF approach).
	ThreadLocalStrategy Strategy = iota
	// CriticalStrategy serialises force updates through one critical
	// region.
	CriticalStrategy
	// LockPerParticleStrategy guards each particle with its own lock.
	LockPerParticleStrategy
)

// String implements fmt.Stringer; names follow Figure 15's series.
func (s Strategy) String() string {
	switch s {
	case CriticalStrategy:
		return "Critical"
	case LockPerParticleStrategy:
		return "Locks"
	default:
		return "ThreadLocal"
	}
}

// baseProgram registers the MolDyn joinpoints against a weaver program and
// returns the runiters entry point. It is shared by the sequential and all
// aspect-woven versions — the paper's point is precisely that the base
// never changes across parallelisation strategies.
type baseProgram struct {
	md  *MolDyn
	run func()

	forceSink func() any
	buffers   func() any
}

func buildBase(md *MolDyn, prog *weaver.Program) *baseProgram {
	b := &baseProgram{md: md}
	cls := prog.Class("MD")
	n := md.n

	// Accessor joinpoints (the M2M refactorings standing in for field
	// joinpoints; see package comment).
	b.forceSink = cls.ValueProc("forceSink", func() any { return PairSink(md.f) })
	b.buffers = cls.ValueProc("privateBuffers", func() any { return []*Forces(nil) })
	ekinAcc := cls.ValueProc("ekinAcc", func() any { return &md.ekin })

	kickDrift := cls.ForProc("kickDrift", md.KickDrift)
	clearF := cls.ForProc("clearForces", md.ClearForces)
	clearE := cls.Proc("clearEnergies", md.ClearEnergies)
	compute := cls.ForProc("computeForces", func(lo, hi, step int) {
		md.ComputeForces(lo, hi, step, b.forceSink().(PairSink))
	})
	reduceF := cls.ForProc("reduceForces", func(lo, hi, step int) {
		md.ReduceForces(lo, hi, step, b.buffers().([]*Forces))
	})
	mergeE := cls.Proc("mergeEnergies", func() {
		md.MergeEnergies(b.buffers().([]*Forces))
	})
	kick := cls.ForProc("kick", func(lo, hi, step int) {
		*(ekinAcc().(*float64)) += md.Kick(lo, hi, step)
	})
	temper := cls.Proc("temperature", md.TemperatureControl)
	scaleV := cls.ForProc("scaleVelocities", md.ScaleVelocities)

	forcePhase := func() {
		clearF(0, n, 1)
		clearE()
		compute(0, n, 1)
		reduceF(0, n, 1)
		mergeE()
	}
	b.run = cls.Proc("runiters", func() {
		forcePhase() // initial forces
		for move := 0; move < md.moves; move++ {
			kickDrift(0, n, 1)
			forcePhase()
			kick(0, n, 1)
			temper()
			scaleV(0, n, 1)
		}
	})
	return b
}

// weaveCommon deploys the aspects every parallel strategy shares: the
// parallel region, work sharing (cyclic force loop, block elsewhere),
// phase barriers, master sections, and the thread-local ekin accumulator
// with its reduction (the second TLF of Table 2).
func weaveCommon(prog *weaver.Program, threads int, md *MolDyn) {
	prog.Use(core.ParallelRegion("call(* MD.runiters(..))").Threads(threads))
	prog.Use(core.ForShare("call(* MD.computeForces(..))").Named("ForCyclic").
		Schedule(sched.StaticCyclic))
	prog.Use(core.ForShare(
		"call(* MD.kickDrift(..)) || call(* MD.clearForces(..)) || call(* MD.reduceForces(..))" +
			" || call(* MD.kick(..)) || call(* MD.scaleVelocities(..))").Named("ForBlock"))
	prog.Use(core.BarrierAfterPoint(
		"call(* MD.kickDrift(..)) || call(* MD.clearForces(..)) || call(* MD.clearEnergies(..))" +
			" || call(* MD.computeForces(..)) || call(* MD.reduceForces(..))" +
			" || call(* MD.mergeEnergies(..)) || call(* MD.temperature(..))"))
	prog.Use(core.MasterSection(
		"call(* MD.clearEnergies(..)) || call(* MD.mergeEnergies(..)) || call(* MD.temperature(..))"))

	ekinTL := core.NewThreadLocal("call(* MD.ekinAcc(..))", "ekin").
		InitFresh(func() any { return new(float64) })
	prog.Use(ekinTL)
	prog.Use(core.ReducePoint("call(* MD.temperature(..))", ekinTL, func(local any) {
		// merge runs on the reduction's last arriver, serially, in worker-id order
		md.ekin += *(local.(*float64))
	}))
}

// ------------------------------------------------------------- versions --

type seqInstance struct {
	p    Params
	md   *MolDyn
	base *baseProgram
}

// NewSeq returns the sequential version (the unwoven base program).
func NewSeq(p Params) harness.Instance { return &seqInstance{p: p} }

func (in *seqInstance) Setup() {
	in.md = New(in.p)
	in.base = buildBase(in.md, weaver.NewProgram("MolDynSeq"))
}
func (in *seqInstance) Kernel()         { in.base.run() }
func (in *seqInstance) Validate() error { return in.md.validate() }

// Energies exposes the result for cross-version comparisons in tests.
func (in *seqInstance) Energies() (float64, float64, float64) { return in.md.Energies() }

type mtInstance struct {
	p       Params
	threads int
	md      *MolDyn
}

// NewMT returns the hand-threaded JGF baseline: per-thread force buffers,
// cyclic force rows, block distribution elsewhere, explicit barriers —
// the structure of the paper's Figure 3, extended to full steps.
func NewMT(p Params, threads int) harness.Instance {
	return &mtInstance{p: p, threads: threads}
}

func (in *mtInstance) Setup() { in.md = New(in.p) }

func (in *mtInstance) Kernel() {
	md := in.md
	t := in.threads
	n := md.n
	buffers := make([]*Forces, t)
	for i := range buffers {
		buffers[i] = NewForces(n)
	}
	ekins := make([]float64, t)
	bar := jgfutil.NewBarrier(t)

	jgfutil.Run(t, func(id int) {
		lo, hi := jgfutil.Block(n, t, id)
		buf := buffers[id]
		forcePhase := func() {
			md.ClearForces(lo, hi, 1)
			if id == 0 {
				md.ClearEnergies()
			}
			bar.Wait()
			md.ComputeForces(id, n, t, buf) // cyclic distribution
			bar.Wait()
			md.ReduceForces(lo, hi, 1, buffers)
			bar.Wait()
			if id == 0 {
				md.MergeEnergies(buffers)
			}
			bar.Wait()
		}
		forcePhase()
		for move := 0; move < md.moves; move++ {
			md.KickDrift(lo, hi, 1)
			bar.Wait()
			forcePhase()
			ekins[id] = md.Kick(lo, hi, 1)
			bar.Wait()
			if id == 0 {
				for _, e := range ekins {
					md.ekin += e
				}
				md.TemperatureControl()
			}
			bar.Wait()
			md.ScaleVelocities(lo, hi, 1)
		}
	})
}

func (in *mtInstance) Validate() error { return in.md.validate() }

// Energies exposes the result for cross-version comparisons in tests.
func (in *mtInstance) Energies() (float64, float64, float64) { return in.md.Energies() }

type aompInstance struct {
	p        Params
	threads  int
	strategy Strategy
	md       *MolDyn
	base     *baseProgram
	prog     *weaver.Program
}

// NewAomp returns the AOmpLib version with the chosen dependence-
// management strategy plugged in as aspects over the unchanged base
// program — the experiment of Figure 15.
func NewAomp(p Params, threads int, strategy Strategy) harness.Instance {
	return &aompInstance{p: p, threads: threads, strategy: strategy}
}

func (in *aompInstance) Setup() {
	in.md = New(in.p)
	in.prog = weaver.NewProgram("MolDyn")
	in.base = buildBase(in.md, in.prog)
	weaveCommon(in.prog, in.threads, in.md)

	md := in.md
	switch in.strategy {
	case CriticalStrategy:
		sink := NewCriticalSink(md.f)
		in.prog.Use(core.Around("CriticalForceSink", "call(* MD.forceSink(..))",
			core.PrecThreadLocal, false,
			func(c *weaver.Call, proceed func(*weaver.Call)) { c.Ret = PairSink(sink) }))
	case LockPerParticleStrategy:
		sink := NewLockTableSink(md.f)
		in.prog.Use(core.Around("LockTableForceSink", "call(* MD.forceSink(..))",
			core.PrecThreadLocal, false,
			func(c *weaver.Call, proceed func(*weaver.Call)) { c.Ret = PairSink(sink) }))
	default: // ThreadLocalStrategy — the first TLF of Table 2
		forceTL := core.NewThreadLocal("call(* MD.forceSink(..))", "forces").
			InitFresh(func() any { return NewForces(md.n) })
		in.prog.Use(forceTL)
		in.prog.Use(core.Around("PrivateBuffers", "call(* MD.privateBuffers(..))",
			core.PrecThreadLocal, true,
			func(c *weaver.Call, proceed func(*weaver.Call)) {
				if c.Worker == nil {
					proceed(c)
					return
				}
				vals := forceTL.Values(c.Worker)
				bufs := make([]*Forces, 0, len(vals))
				for _, v := range vals {
					bufs = append(bufs, v.(*Forces))
				}
				c.Ret = bufs
			}))
	}
	in.prog.MustWeave()
}

func (in *aompInstance) Kernel()         { in.base.run() }
func (in *aompInstance) Validate() error { return in.md.validate() }

// Energies exposes the result for cross-version comparisons in tests.
func (in *aompInstance) Energies() (float64, float64, float64) { return in.md.Energies() }

// Program exposes the woven program to the Table 2 tooling and jgfbench.
func (in *aompInstance) Program() *weaver.Program { return in.prog }
