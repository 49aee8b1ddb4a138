package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"aomplib"
)

// reweaveWorkload puts writes beside reads on the weaver. One goroutine
// calls through a 64-method program whose every method carries a
// lightweight Around counter advice (no regions, no worker lookup); a
// second executes a seed-drawn script of reconfigurations against the same
// program: per-method SetAdviceEnabled flips, Use/RemoveAspect of a
// wildcard-pointcut aspect, and a full Unweave+Weave every 1000th op.
//
// The pass is the script, timed under that call load. The caller times its
// calls in blocks, alternately through the woven program and through plain
// closures, so the call path reads as a ratio to a plain call taken under
// the same churn. A call-path gain paid for in reconfiguration cost, or
// the reverse, moves one of the two and shows nowhere else.
//
// The serial form — a twin program whose advice is gated off — is timed
// against plain closures in a second, quiet cell: under churn the
// reconfigurer's garbage decides how often a collection empties the
// weaver's call pool, and that, not the gate, would set the ratio.
type reweaveWorkload struct {
	env    *runEnv
	chunk  int // script ops per pass
	every  int // a full Unweave+Weave every this many ops
	cycles int // minimum caller cycles per pass
	blockN int // calls per timed block

	prog, off *aomplib.Program
	woven     []func() // entry points into prog
	gated     []func() // entry points into off: same advice, disabled
	plain     []func() // the bodies as plain closures
	fqns      []string
	wild      aomplib.Aspect

	bodies, advised, wildHits int64 // touched by the caller only
	mix                       uint64

	script []scriptOp
	cursor int    // next script op; the script is cyclic
	state  []bool // per method: is the Count advice enabled
	wildOn bool

	opTimes  map[opKind][]float64 // per recorded round: median µs of the ops of a kind
	allOps   []float64            // per recorded round: median µs of all ops
	rebuilds float64              // chain compositions of one quiescent chunk
}

type opKind uint8

const (
	opToggle opKind = iota
	opWild
	opReweave
)

type scriptOp struct {
	kind   opKind
	method int
}

const (
	reweaveMeths = 64
	scriptLen    = 20_000
)

// newReweave is the set-up: register both programs, deploy and weave the
// counter aspect, draw the script from the seed, and replay one chunk with
// no caller running — which warms the weaver and yields the chunk's chain
// rebuild count, a number that repeats exactly for a seed.
func newReweave(env *runEnv) *reweaveWorkload {
	w := &reweaveWorkload{env: env, chunk: scriptLen, every: 1000, cycles: 4, blockN: 100_000,
		opTimes: map[opKind][]float64{}}
	if env.sc.quick {
		w.chunk, w.every, w.cycles, w.blockN = 200, 50, 1, 500
	}
	build := func(name string, count *int64) (*aomplib.Program, []func()) {
		p := aomplib.NewProgram(name)
		var entries []func()
		for i := 0; i < reweaveMeths; i++ {
			cls := p.Class(fmt.Sprintf("C%d", i/16))
			entries = append(entries, cls.Proc(fmt.Sprintf("m%d", i%16), w.body))
		}
		p.Use(aomplib.Around("Count", "call(* C*.*(..))", 10, false,
			func(c *aomplib.Call, proceed func(*aomplib.Call)) {
				*count++
				proceed(c)
			}))
		env.main.do("Weave", p.MustWeave)
		return p, entries
	}
	var never int64
	w.prog, w.woven = build("reweave", &w.advised)
	w.off, w.gated = build("reweave-off", &never)
	if err := w.off.SetAdviceEnabled("Count", false); err != nil {
		panic(err)
	}
	for i := 0; i < reweaveMeths; i++ {
		w.fqns = append(w.fqns, fmt.Sprintf("C%d.m%d", i/16, i%16))
		w.plain = append(w.plain, w.body)
	}
	w.wild = aomplib.Around("Wild", "call(* *.m1*(..))", 20, false,
		func(c *aomplib.Call, proceed func(*aomplib.Call)) {
			w.wildHits++
			proceed(c)
		})
	w.state = make([]bool, reweaveMeths)
	w.resetState()

	rng := rand.New(rand.NewSource(env.seed))
	w.script = make([]scriptOp, scriptLen)
	for i := range w.script {
		switch {
		case (i+1)%w.every == 0:
			w.script[i] = scriptOp{kind: opReweave}
		case rng.Intn(20) == 0:
			w.script[i] = scriptOp{kind: opWild}
		default:
			w.script[i] = scriptOp{kind: opToggle, method: rng.Intn(reweaveMeths)}
		}
	}

	before := w.prog.ChainRebuilds()
	for i := 0; i < w.chunk; i++ {
		w.apply(w.script[i])
	}
	w.rebuilds = float64(w.prog.ChainRebuilds() - before)
	w.quiesce()
	return w
}

// body is what every one of the 64 methods does, woven or plain: count
// the call and do a few nanoseconds of arithmetic. The ratios to a plain
// call have this in the denominator; against an empty body they would
// measure how the compiler laid out a two-instruction loop.
//
//go:noinline
func (w *reweaveWorkload) body() {
	w.bodies++
	x := w.mix
	for i := 0; i < 8; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	w.mix = x
}

func (w *reweaveWorkload) resetState() {
	for i := range w.state {
		w.state[i] = true
	}
}

// apply executes one script op against prog. Ops flip state, so the
// script is valid from any state and can be cycled.
func (w *reweaveWorkload) apply(op scriptOp) {
	switch op.kind {
	case opToggle:
		w.state[op.method] = !w.state[op.method]
		if err := w.prog.SetAdviceEnabled("Count", w.state[op.method], w.fqns[op.method]); err != nil {
			panic(err)
		}
	case opWild:
		if w.wildOn {
			w.prog.RemoveAspect("Wild")
		} else {
			w.prog.Use(w.wild)
		}
		w.wildOn = !w.wildOn
	case opReweave:
		w.prog.Unweave()
		w.prog.MustWeave()
	}
}

// quiesce returns prog to the all-on state without the wildcard aspect.
func (w *reweaveWorkload) quiesce() {
	if w.wildOn {
		w.prog.RemoveAspect("Wild")
		w.wildOn = false
	}
	if err := w.prog.SetAdviceEnabled("Count", true); err != nil {
		panic(err)
	}
	w.resetState()
}

// block times n calls round-robin over the 64 entry points.
func (w *reweaveWorkload) block(entries []func()) float64 {
	t0 := time.Now()
	for i := 0; i < w.blockN; i++ {
		entries[i&(reweaveMeths-1)]()
	}
	return time.Since(t0).Seconds()
}

func (w *reweaveWorkload) cells() []*cell {
	var extra map[string]float64
	rtrack := w.env.tr.newTrack() // the reconfigurer's spans
	churn := &cell{
		group: "reweave-live", role: "churn",
		run: func() {
			var chunkDone, callerDone atomic.Bool
			reconfDone := make(chan float64)
			go func() { // the reconfigurer
				t0 := time.Now()
				chunkSec := 0.0
				us := map[opKind][]float64{}
				for n := 0; n < w.chunk || !callerDone.Load(); n++ {
					if n == w.chunk {
						chunkSec = time.Since(t0).Seconds()
						chunkDone.Store(true)
					}
					op := w.script[w.cursor]
					w.cursor = (w.cursor + 1) % scriptLen
					rtrack.begin(opNames[op.kind])
					o0 := time.Now()
					w.apply(op)
					us[op.kind] = append(us[op.kind], time.Since(o0).Seconds()*1e6)
					rtrack.end()
				}
				if w.env.recording {
					var all []float64
					for kind, ts := range us {
						w.opTimes[kind] = append(w.opTimes[kind], median(ts))
						all = append(all, ts...)
					}
					w.allOps = append(w.allOps, median(all))
				}
				if chunkSec == 0 {
					chunkSec = time.Since(t0).Seconds()
					chunkDone.Store(true)
				}
				reconfDone <- chunkSec
			}()
			var lib, plain []float64
			bodies0 := w.bodies
			var made int64
			for c := 0; c < w.cycles || !chunkDone.Load(); c++ {
				w.env.main.begin("calls")
				lib = append(lib, w.block(w.woven))
				w.env.main.end()
				plain = append(plain, w.block(w.plain))
				made += 2 * int64(w.blockN)
			}
			callerDone.Store(true)
			chunkSec := <-reconfDone
			w.env.tally.check(w.bodies-bodies0 == made, "reweave-live: %d calls ran %d bodies", made, w.bodies-bodies0)
			extra = map[string]float64{roleLib: median(lib), roleRef: median(plain), rolePass: chunkSec}
		},
		after: func() {
			// Quiescent end state: with everything on, 1000 calls bump the
			// advice counter by exactly 1000; with everything off, by 0.
			w.quiesce()
			a0 := w.advised
			for i := 0; i < 1000; i++ {
				w.woven[i&(reweaveMeths-1)]()
			}
			w.env.tally.check(w.advised-a0 == 1000, "reweave-live: all on, 1000 calls advised %d times", w.advised-a0)
			if err := w.prog.SetAdviceEnabled("Count", false); err != nil {
				panic(err)
			}
			a0 = w.advised
			for i := 0; i < 1000; i++ {
				w.woven[i&(reweaveMeths-1)]()
			}
			w.env.tally.check(w.advised == a0, "reweave-live: all off, 1000 calls advised %d times", w.advised-a0)
			w.quiesce()
		},
	}
	churn.extra = func() map[string]float64 { return extra }
	var quietExtra map[string]float64
	quiet := &cell{
		group: "reweave-live", role: "quiet",
		run: func() {
			var gated, plain []float64
			bodies0 := w.bodies
			for c := 0; c < 2*w.cycles; c++ {
				gated = append(gated, w.block(w.gated))
				plain = append(plain, w.block(w.plain))
			}
			made := 4 * int64(w.cycles) * int64(w.blockN)
			w.env.tally.check(w.bodies-bodies0 == made, "reweave-live: %d quiet calls ran %d bodies", made, w.bodies-bodies0)
			quietExtra = map[string]float64{roleSerial: median(gated), roleSeq: median(plain)}
		},
		extra: func() map[string]float64 { return quietExtra },
	}
	return []*cell{churn, quiet}
}

var opNames = map[opKind]string{opToggle: "SetAdviceEnabled", opWild: "Use/RemoveAspect", opReweave: "Unweave+Weave"}

func (w *reweaveWorkload) rows(st *stats, rep *report) {
	rep.set("reweave.calls_per_s", float64(w.blockN)/median(st.get("reweave-live", roleLib)))
	rep.setSamples("reweave.reconfig_us", w.allOps)
	rep.setSamples("weaver.toggle_us", w.opTimes[opToggle])
	rep.setSamples("weaver.use_remove_us", w.opTimes[opWild])
	rep.setSamples("weaver.unweave_ms", scaled(w.opTimes[opReweave], 1e-3))
	rep.set("weaver.chain_rebuilds", w.rebuilds)
}
