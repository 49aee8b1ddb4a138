package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"aomplib"
)

// fineWorkload is one caller entering tiny regions through the public
// facade. The composite op is
//
//	ParallelRegion(T) → ForShare(n=1024, dynamic,16) over a thread-local
//	accumulator → ReducePoint → barrier → Single → 2 tasks → taskwait
//
// and its bodies add 1024 numbers: weaver dispatch, worker lookup, pool
// lease and wake, dispenser, barrier and task queues are the whole cost.
// The numbers are small integers held as float64: every partial sum is
// exact, so the reduction has a closed form whatever the chunking, and the
// adds form a latency-bound chain whose speed does not move with where the
// linker happened to align the loop (an integer add loop read 0.5 or 0.8 ns
// per element depending on an unrelated function added to the binary, and
// took serial_over_seq with it).
type fineWorkload struct {
	env   *runEnv
	n     int
	batch int // composite ops per lib/ref sample
	long  int // ops per serial/seq sample (they are ~20x cheaper each)
	data  []float64
	want  float64 // closed form of one op's reduction: the sum of data

	prog *aomplib.Program
	op   func()

	// What the ops accumulate; reset before and checked after every sample.
	total   float64
	singles int64
	tasks   atomic.Int64

	// State of the hand-written reference op.
	mu   sync.Mutex
	next atomic.Int64
}

const fineChunk = 16

// newFinegrain is the set-up: draw the data from the seed, register and
// weave the program, and run one op so the team is leased and parked.
func newFinegrain(env *runEnv) *fineWorkload {
	w := &fineWorkload{env: env, n: 1024, batch: 2000, long: 20_000}
	if env.sc.quick {
		w.batch, w.long = 20, 100
	}
	rng := rand.New(rand.NewSource(env.seed))
	w.data = make([]float64, w.n)
	for i := range w.data {
		w.data[i] = float64(rng.Intn(1000))
		w.want += w.data[i]
	}

	w.prog = aomplib.NewProgram("finegrain")
	cls := w.prog.Class("Fine")
	acc := cls.ValueProc("acc", func() any { return &w.total })
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		*(acc().(*float64)) += w.sum(lo, hi, step)
	})
	reduce := cls.Proc("reduce", func() {})
	task := cls.Proc("task", func() { w.tasks.Add(1) })
	single := cls.Proc("single", func() {
		w.singles++
		task()
		task()
	})
	wait := cls.Proc("wait", func() {})
	w.op = cls.Proc("op", func() {
		loop(0, w.n, 1)
		reduce()
		single()
		wait()
	})

	// The eight hot methods live in a program of 512: set-up then pays what
	// a large program pays — registering every method and matching every
	// pointcut against it at Weave — and setup_s moves with the weaver and
	// the pointcut matcher instead of with the jitter of spawning one team.
	for i := 8; i < 512; i++ {
		w.prog.Class(fmt.Sprintf("Lib%d", i/32)).Proc(fmt.Sprintf("m%d", i%32), func() {})
	}

	tl := aomplib.NewThreadLocal("call(* Fine.acc(..))", "acc").
		InitFresh(func() any { return new(float64) })
	w.prog.Use(aomplib.ParallelRegion("call(* Fine.op(..))").Threads(env.width))
	w.prog.Use(aomplib.ForShare("call(* Fine.loop(..))").Schedule(aomplib.Dynamic).Chunk(fineChunk))
	w.prog.Use(tl)
	w.prog.Use(aomplib.ReducePoint("call(* Fine.reduce(..))", tl, func(local any) {
		w.total += *(local.(*float64))
	}))
	w.prog.Use(aomplib.BarrierAfterPoint("call(* Fine.reduce(..))"))
	w.prog.Use(aomplib.SingleSection("call(* Fine.single(..))"))
	w.prog.Use(aomplib.TaskSpawn("call(* Fine.task(..))"))
	w.prog.Use(aomplib.TaskWaitPoint("call(* Fine.wait(..))"))
	env.main.do("Weave", w.prog.MustWeave)
	w.op()
	return w
}

// sum is the loop body every version shares — woven, hand-written and
// plain — so the versions differ in how the body is reached and not in how
// the compiler happened to lay out three copies of one loop.
//
//go:noinline
func (w *fineWorkload) sum(lo, hi, step int) float64 {
	s := 0.0
	for i := lo; i < hi; i += step {
		s += w.data[i]
	}
	return s
}

// refOp is the composite op written by hand: T goroutines pull chunks of
// 16 off an atomic counter, add their partial under a mutex, join; the
// caller does the single part and joins two task goroutines.
func (w *fineWorkload) refOp() {
	w.next.Store(0)
	var wg sync.WaitGroup
	work := func() {
		s := 0.0
		for {
			lo := int(w.next.Add(fineChunk)) - fineChunk
			if lo >= w.n {
				break
			}
			s += w.sum(lo, min(lo+fineChunk, w.n), 1)
		}
		w.mu.Lock()
		w.total += s
		w.mu.Unlock()
	}
	wg.Add(w.env.width - 1)
	for id := 1; id < w.env.width; id++ {
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	w.singles++
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() { defer wg.Done(); w.tasks.Add(1) }()
	}
	wg.Wait()
}

// plainOp is the op as a plain Go function: no registry, no goroutines.
//
//go:noinline
func (w *fineWorkload) plainOp() {
	w.total += w.sum(0, w.n, 1)
	w.singles++
	w.tasks.Add(1)
	w.tasks.Add(1)
}

func (w *fineWorkload) cells() []*cell {
	mk := func(role string, ops int, prep func(), op func()) *cell {
		return &cell{
			group: "finegrain", role: role,
			prep: func() {
				if prep != nil {
					prep()
				}
				w.total, w.singles = 0, 0
				w.tasks.Store(0)
			},
			run: func() {
				for i := 0; i < ops; i++ {
					op()
				}
			},
			after: func() {
				n := int64(ops)
				w.env.tally.check(w.total == float64(n)*w.want, "finegrain/%s: reduction %v, closed form %v", role, w.total, float64(n)*w.want)
				w.env.tally.check(w.singles == n, "finegrain/%s: single ran %d times in %d ops", role, w.singles, n)
				w.env.tally.check(w.tasks.Load() == 2*n, "finegrain/%s: %d tasks ran in %d ops", role, w.tasks.Load(), n)
			},
		}
	}
	weave := func() { w.env.main.do("Weave", w.prog.MustWeave) }
	unweave := func() { w.env.main.do("Unweave", w.prog.Unweave) }
	return []*cell{
		mk(roleLib, w.batch, weave, func() { w.env.main.do("op", w.op) }),
		mk(roleRef, w.batch, nil, w.refOp),
		mk(roleSerial, w.long, unweave, w.op),
		mk(roleSeq, w.long, nil, w.plainOp),
	}
}

func (w *fineWorkload) rows(st *stats, rep *report) {
	rep.setSamples("finegrain.small_region_us", scaled(st.get("finegrain", roleLib), 1e6/float64(w.batch)))
	rep.setSamples("finegrain.ref_region_us", scaled(st.get("finegrain", roleRef), 1e6/float64(w.batch)))
	rep.setSamples("finegrain.unplugged_us", scaled(st.get("finegrain", roleSerial), 1e6/float64(w.long)))
	rep.setSamples("finegrain.plain_us", scaled(st.get("finegrain", roleSeq), 1e6/float64(w.long)))
}
