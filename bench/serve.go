package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"aomplib"
	"aomplib/internal/graph"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/montecarlo"
	"aomplib/internal/sched"
)

// serveWorkload is the multi-tenant server in a closed loop: T tenants
// with one client each, every client sends its next request only when the
// previous reply is in. One admission slot of team width T, policy block,
// metrics registry on — the production configuration. A request is a
// PageRank step pair over a 1500-node power-law graph or a 300x60
// MonteCarlo pricing, drawn per seed. With T clients and one slot there is
// always a request queued, so the admission wait is about one service
// time and moves the latency one for one.
type serveWorkload struct {
	env   *runEnv
	block int     // requests per lib/ref sample, split evenly over tenants
	sub   int     // requests per serial/seq sample
	bare  int     // requests per uncontended service-time sample
	kinds []uint8 // the request stream: 0 PageRank, 1 MonteCarlo
	// Blocks served so far by the lib and the ref cell: both serve block r
	// of the stream in round r, so a round's pair sees the same requests.
	libRound, refRound int

	lib    []reqKernels // per tenant, team width T
	serial reqKernels   // team width 1
	seq    reqKernels   // plain sequential kernels

	mu     sync.Mutex // the hand-written admission: one slot
	tracks []*track   // one span track per client

	lat     []float64 // every lib request's latency (s), all recorded rounds
	tenantS []float64 // per tenant, summed time to finish its share
	tenantN []int
	counts  runtimeCounts // snapshots around lib samples
}

// reqKernels are one owner's two request kernels with their checks.
type reqKernels struct {
	pagerank   func()
	mass       func() float64 // PageRank's total rank mass, ≈ 1
	montecarlo func()
	priced     func() error // MonteCarlo's range check
}

const (
	rolePRBare = "pagerank"
	roleMCBare = "montecarlo"
	// streamBlocks blocks of 1000 requests make the 60 000-request stream.
	streamBlocks = 60
)

// newServe is the set-up: draw the graph and the request stream from the
// seed, build every tenant's programs, and serve one request of each kind
// so the team is leased and parked.
func newServe(env *runEnv) *serveWorkload {
	w := &serveWorkload{env: env, block: 1000, sub: 400, bare: 200}
	if env.sc.quick {
		w.block, w.sub, w.bare = 16*env.width, 16, 8
	}
	w.block -= w.block % (2 * env.width)
	// Every block holds exactly as many requests of one kind as of the
	// other, in a seed-drawn order: the seed moves which request follows
	// which, not how much work a block is.
	rng := rand.New(rand.NewSource(env.seed))
	w.kinds = make([]uint8, streamBlocks*w.block)
	for b := 0; b < len(w.kinds); b += w.block {
		blk := w.kinds[b : b+w.block]
		for i := range blk {
			blk[i] = uint8(i % 2)
		}
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	g := graph.NewPowerLaw(1500, 8, env.seed)
	mcp := montecarlo.Params{Runs: 300, Steps: 60}
	build := func(width int) reqKernels {
		pr := graph.NewPageRank(g, 0.85, 2)
		var k reqKernels
		var mc harness.Instance
		if width == 0 {
			k.pagerank, mc = pr.RunSeq, montecarlo.NewSeq(mcp)
		} else {
			k.pagerank, _ = graph.BuildAomp(pr, width, sched.Dynamic, 64)
			mc = montecarlo.NewAomp(mcp, width)
		}
		mc.Setup()
		k.mass, k.montecarlo, k.priced = pr.Sum, mc.Kernel, mc.Validate
		return k
	}
	for t := 0; t < env.width; t++ {
		w.lib = append(w.lib, build(env.width))
	}
	w.serial, w.seq = build(1), build(0)
	w.tenantS = make([]float64, env.width)
	w.tenantN = make([]int, env.width)
	for t := 0; t < env.width; t++ {
		w.tracks = append(w.tracks, env.tr.newTrack())
	}
	w.lib[0].pagerank()
	w.lib[0].montecarlo()
	return w
}

// serveOne runs request i of the stream on k.
func (w *serveWorkload) serveOne(k reqKernels, i int) {
	if w.kinds[i%len(w.kinds)] == 0 {
		k.pagerank()
	} else {
		k.montecarlo()
	}
}

func (w *serveWorkload) checkReply(tl *tally, k reqKernels, i int, who string) {
	if w.kinds[i%len(w.kinds)] == 0 {
		m := k.mass()
		tl.check(math.Abs(m-1) < 1e-6, "serve-mix/%s: PageRank mass %v after request %d", who, m, i)
	} else {
		err := k.priced()
		tl.check(err == nil, "serve-mix/%s: request %d: %v", who, i, err)
	}
}

// closedLoop serves block number round: tenant t's client sends requests
// base+t, base+t+T, ... one after the other through admit, which wraps
// the request in the admission mechanism under test and reports whether
// it was served at full width. Every 64th reply is checked by the client
// that received it, outside the request's timing. It returns each
// client's latencies.
func (w *serveWorkload) closedLoop(who string, round int, admit func(t int, k *track, work func()) bool) [][]float64 {
	width := w.env.width
	per := w.block / width
	base := round * w.block
	lats := make([][]float64, width)
	done := make([]float64, width)
	tallies := make([]tally, width)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < width; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			lats[t] = make([]float64, 0, per)
			for j := 0; j < per; j++ {
				i := base + j*width + t
				t0 := time.Now()
				ok := admit(t, w.tracks[t], func() { w.serveOne(w.lib[t], i) })
				lats[t] = append(lats[t], time.Since(t0).Seconds())
				tallies[t].check(ok, "serve-mix/%s: request %d of tenant %d not served at full width", who, i, t)
				if j%64 == 0 {
					w.checkReply(&tallies[t], w.lib[t], i, who)
				}
			}
			done[t] = time.Since(start).Seconds()
		}(t)
	}
	wg.Wait()
	for t := 0; t < width; t++ {
		w.env.tally.merge(tallies[t])
		if who == roleLib && w.env.recording {
			w.tenantS[t] += done[t]
			w.tenantN[t] += per
		}
	}
	return lats
}

func (w *serveWorkload) cells() []*cell {
	width := w.env.width
	var restore func()
	lib := &cell{
		group: "serve-mix", role: roleLib,
		prep: func() {
			prevPool := aomplib.SetPoolSize(width)
			prevOn := aomplib.SetAdmissionControl(true)
			prevPolicy, prevTimeout := aomplib.SetAdmitPolicy(aomplib.AdmitBlock, 0)
			prevMax := aomplib.SetAdmitMaxTeams(1)
			prevMetrics := aomplib.EnableMetrics(true)
			restore = func() {
				aomplib.EnableMetrics(prevMetrics)
				aomplib.SetAdmitMaxTeams(prevMax)
				aomplib.SetAdmitPolicy(prevPolicy, prevTimeout)
				aomplib.SetAdmissionControl(prevOn)
				aomplib.SetPoolSize(prevPool)
			}
			w.counts.addScaled(readCounts(), -1)
		},
		run: func() {
			lats := w.closedLoop(roleLib, w.libRound, func(t int, k *track, work func()) bool {
				k.begin("request")
				k.begin("EnterTenant")
				tok := aomplib.EnterTenant(tenantName(t))
				k.end()
				k.do("serve", work)
				ok := tok.Degraded() == 0 && tok.Rejected() == 0 && tok.TimedOut() == 0
				k.do("Exit", tok.Exit)
				k.end()
				return ok
			})
			for _, l := range lats {
				if w.env.recording {
					w.lat = append(w.lat, l...)
				}
			}
		},
		after: func() {
			w.counts.addScaled(readCounts(), 1)
			restore()
			w.libRound++
		},
	}
	ref := &cell{
		group: "serve-mix", role: roleRef,
		run: func() {
			w.closedLoop(roleRef, w.refRound, func(t int, k *track, work func()) bool {
				w.mu.Lock()
				work()
				w.mu.Unlock()
				return true
			})
			w.refRound++
		},
	}
	// one is a single caller sending n requests to k back to back.
	one := func(role string, k reqKernels, n int, request func(i int)) *cell {
		return &cell{
			group: "serve-mix", role: role,
			run: func() {
				for i := 0; i < n; i++ {
					request(i)
				}
			},
			after: func() {
				m := k.mass()
				w.env.tally.check(math.Abs(m-1) < 1e-6, "serve-mix/%s: PageRank mass %v", role, m)
				err := k.priced()
				w.env.tally.check(err == nil, "serve-mix/%s: %v", role, err)
			},
		}
	}
	cells := []*cell{lib, ref,
		one(roleSerial, w.serial, w.sub, func(i int) { w.serveOne(w.serial, i) }),
		one(roleSeq, w.seq, w.sub, func(i int) { w.serveOne(w.seq, i) })}
	if w.env.sc.detail {
		bare := w.lib[0]
		cells = append(cells,
			one(rolePRBare, bare, w.bare, func(int) { bare.pagerank() }),
			one(roleMCBare, bare, w.bare, func(int) { bare.montecarlo() }))
	}
	return cells
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

func (w *serveWorkload) rows(st *stats, rep *report) {
	rep.set("serve.rps", float64(w.block)/median(st.get("serve-mix", roleLib)))
	sort.Float64s(w.lat)
	rep.set("serve.p50_ms", 1e3*quantile(w.lat, 0.50))
	rep.set("serve.p99_ms", 1e3*quantile(w.lat, 0.99))
	rep.info["serve.p99_ms"] = sampleInfo{n: len(w.lat), min: 1e3 * w.lat[0], max: 1e3 * w.lat[len(w.lat)-1]}
	lo, hi := math.Inf(1), 0.0
	for t := range w.tenantS {
		rps := float64(w.tenantN[t]) / w.tenantS[t]
		lo, hi = math.Min(lo, rps), math.Max(hi, rps)
	}
	rep.set("serve.fairness", lo/hi)
	rep.set("rt.pool_hit_share", share(w.counts.n["hits"], w.counts.n["leases"]))
	rep.set("rt.admit_queued_share", share(w.counts.n["queued"], w.counts.n["admitted"]))
	rep.set("rt.admit_wait_p50_us", w.counts.admitWait.quantile(0.50)/1e3)
	rep.set("rt.admit_wait_p99_us", w.counts.admitWait.quantile(0.99)/1e3)
	rep.setSamples("graph.pagerank_req_us", scaled(st.get("serve-mix", rolePRBare), 1e6/float64(w.bare)))
	rep.setSamples("jgf.montecarlo.req_us", scaled(st.get("serve-mix", roleMCBare), 1e6/float64(w.bare)))
}
