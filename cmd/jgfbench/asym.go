package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"aomplib/internal/core"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/sched"
	"aomplib/internal/weaver"
)

// asymThrottle is -asym: a software model of an asymmetric multicore
// (efficiency cores, throttled cores, a noisy neighbour) on a symmetric
// machine, deployed as an aspect just inside @For. Per sub-range a worker
// is dealt, the worker with team ID i spins spins[i] busy-work units (one
// multiply-add each) per iteration. Every schedule is throttled alike, so
// schedule comparisons under it are fair. charged counts each worker's
// units; sink defeats dead-code elimination of the spin loop.
type asymThrottle struct {
	spins   []uint32
	charged []atomic.Uint64
	sink    atomic.Uint64
}

// parseAsym parses the -asym spec — comma-separated worker:spins pairs —
// into a throttle, nil for an empty spec. A pair naming a worker no team
// of the run has (id ≥ maxWorkers) or a spin count beyond the counter is
// an error: a throttle that silently does nothing, or less than asked,
// would invalidate the asymmetry comparison the flag exists for.
func parseAsym(s string, maxWorkers int) (*asymThrottle, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var spins []uint32
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		id, units, ok := strings.Cut(part, ":")
		w, err1 := strconv.Atoi(strings.TrimSpace(id))
		u, err2 := strconv.ParseInt(strings.TrimSpace(units), 10, 64)
		switch {
		case !ok || err1 != nil || err2 != nil || w < 0 || u < 0:
			return nil, fmt.Errorf("bad -asym pair %q (want worker:spins, e.g. 0:300)", part)
		case w >= maxWorkers:
			return nil, fmt.Errorf("-asym pair %q: worker %d is in no team (widest -threads team has %d workers)", part, w, maxWorkers)
		case u > math.MaxUint32:
			return nil, fmt.Errorf("-asym pair %q: %d spins exceeds the throttle's limit of %d", part, u, uint32(math.MaxUint32))
		}
		for len(spins) <= w {
			spins = append(spins, 0)
		}
		spins[w] = uint32(u)
	}
	return &asymThrottle{spins: spins, charged: make([]atomic.Uint64, len(spins))}, nil
}

// charge spins worker id for iters iterations' worth of its slowdown.
func (t *asymThrottle) charge(id, iters int) {
	if id >= len(t.spins) || t.spins[id] == 0 || iters <= 0 {
		return
	}
	n := uint64(t.spins[id]) * uint64(iters)
	x := uint64(id)*2862933555777941757 + 3037000493
	for i := uint64(0); i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	t.sink.Add(x | 1)
	t.charged[id].Add(n)
}

// aspect is the throttle as a deployable module: an around advice on every
// for method, inside @For, so it sees each worker's sub-range.
func (t *asymThrottle) aspect() weaver.Aspect {
	return core.Around("AsymThrottle", "call(* *(int, int, int))", core.PrecFor-1, true,
		func(c *weaver.Call, proceed func(*weaver.Call)) {
			if c.Worker != nil {
				t.charge(c.Worker.ID, sched.Space{Lo: c.Lo, Hi: c.Hi, Step: c.Step}.Count())
			}
			proceed(c)
		})
}

// deploy wraps a woven kernel so that every Setup, which builds a fresh
// program, ends with the throttle deployed on it.
func (t *asymThrottle) deploy(inst harness.Instance) harness.Instance {
	if t == nil {
		return inst
	}
	return throttled{inst.(wovenKernel), t}
}

// wovenKernel is a benchmark version built on a woven program.
type wovenKernel interface {
	harness.Instance
	Program() *weaver.Program
}

type throttled struct {
	wovenKernel
	t *asymThrottle
}

func (in throttled) Setup() {
	in.wovenKernel.Setup()
	in.Program().Use(in.t.aspect())
}
