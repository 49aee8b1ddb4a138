package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"aomplib"
)

// Every workload is a set of cells: one version of one unit of fixed work.
// The role says what the version is, and the end-to-end metrics are
// defined on roles, so they mean the same thing on every workload:
//
//	lib    the library version at team width T (woven aspects, or the
//	       facade used the way the workload uses it)
//	ref    the same work hand-written without the library (JGF-MT threads,
//	       goroutines and a mutex, plain closures)
//	serial the library version with its parallelism switched off the
//	       library's own way (team width 1, unplugged, or gated off)
//	seq    the plain sequential program
//
// Other roles ("df", "par", ...) feed per-layer rows only.
const (
	roleLib    = "lib"
	roleRef    = "ref"
	roleSerial = "serial"
	roleSeq    = "seq"
	rolePass   = "pass"
)

type cell struct {
	group string // a kernel, or the workload itself
	role  string
	prep  func() // untimed, before the collection that precedes the sample
	run   func() // the timed sample
	after func() // untimed: validation and knob restore
	// extra, when set, returns more samples of the group from the run just
	// timed, by role: a cell whose run times several versions side by side
	// (reweave-live's caller) reports them here.
	extra func() map[string]float64
}

// cellKey names a cell's samples.
type cellKey struct{ group, role string }

func (c *cell) key() cellKey { return cellKey{c.group, c.role} }

// tally counts checked operations and the ones that came out wrong.
type tally struct {
	attempted, failed int
	first             string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
}

// merge adds o's counts; workers of a concurrent cell tally on their own
// and are merged once they have joined.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == "" {
		t.first = o.first
	}
}

// scale is how much of a workload one call measures.
type scale struct {
	quick     bool          // test-sized inputs
	budget    time.Duration // wall time for warm-up plus rounds
	minRounds int
	maxRounds int
	warm      bool // one untimed warm-up round first
	detail    bool // also run the cells that only per-layer rows need
}

// runEnv is what a workload gets: its seed, the team width, how much to
// measure, where to count failures and, on a traced run, where to record.
type runEnv struct {
	seed  int64
	width int
	sc    scale
	tally *tally
	tr    *tracer // nil on an untraced run
	main  *track
	// recording is false during the warm-up round: cells that keep their
	// own samples (latencies, per-op times) drop what they see then.
	recording bool
	// counts accumulates the public-snapshot deltas read around traced
	// rounds.
	counts runtimeCounts
}

// stats is what the rounds produced: seconds per cell per recorded round,
// aligned by round index.
type stats struct {
	samples map[cellKey][]float64
	traced  []bool // whether round i ran with spans and metrics on
	// spin is the calibration spin per round: the mean of the T-wide spin
	// taken before the round and the one taken after it.
	spin    []float64
	elapsed time.Duration
}

func (s *stats) get(group, role string) []float64 { return s.samples[cellKey{group, role}] }

// groups lists the groups that have samples.
func (s *stats) groups() []string {
	var out []string
	seen := map[string]bool{}
	for k := range s.samples {
		if !seen[k.group] {
			seen[k.group] = true
			out = append(out, k.group)
		}
	}
	return out
}

// pass returns a group's samples of the workload's fixed work in the
// library version: the pass role where the group has one (a workload
// whose fixed work is not what its lib samples time), else lib.
func (s *stats) pass(group string) []float64 {
	if p := s.get(group, rolePass); len(p) > 0 {
		return p
	}
	return s.get(group, roleLib)
}

// runRounds interleaves the cells in rounds: every round runs every cell
// once, groups in a seed-shuffled order and a group's versions adjacent
// (also shuffled), so that the versions a ratio compares sit a fraction
// of a second apart. Before every timed sample: the cell's untimed prep,
// then a full collection. Rounds repeat until the budget is spent.
func runRounds(env *runEnv, cells []*cell) *stats {
	st := &stats{samples: map[cellKey][]float64{}}
	byGroup := map[string][]*cell{}
	var groups []string
	for _, c := range cells {
		if byGroup[c.group] == nil {
			groups = append(groups, c.group)
		}
		byGroup[c.group] = append(byGroup[c.group], c)
	}
	sample := int32(0)
	one := func(r int, record bool) {
		rng := rand.New(rand.NewSource(env.seed*7919 + int64(r)))
		order := rng.Perm(len(groups))
		env.recording = record
		before := parSpin(env.width, 2*spinIters)
		for _, gi := range order {
			gc := byGroup[groups[gi]]
			for _, ci := range rng.Perm(len(gc)) {
				c := gc[ci]
				sample++
				if env.tr != nil {
					env.tr.sample.Store(sample)
				}
				env.main.begin(c.group + "/" + c.role)
				if c.prep != nil {
					env.main.do("prep", c.prep)
				}
				runtime.GC()
				env.main.begin("run")
				t0 := time.Now()
				c.run()
				dt := time.Since(t0)
				env.main.end()
				if c.after != nil {
					env.main.do("check", c.after)
				}
				env.main.end()
				if record {
					st.samples[c.key()] = append(st.samples[c.key()], dt.Seconds())
					if c.extra != nil {
						for role, v := range c.extra() {
							k := cellKey{c.group, role}
							st.samples[k] = append(st.samples[k], v)
						}
					}
				}
			}
		}
		if record {
			st.spin = append(st.spin, (before+parSpin(env.width, 2*spinIters)).Seconds()/2)
		}
	}

	start := time.Now()
	if env.sc.warm {
		one(-1, false)
	}
	var cost time.Duration
	for r := 0; r < env.sc.maxRounds; r++ {
		if r >= env.sc.minRounds && time.Since(start)+cost > env.sc.budget {
			break
		}
		t0 := time.Now()
		// A traced run alternates: odd rounds record spans with the metrics
		// registry on, even rounds run as the untraced benchmark does. The
		// paired difference is the price of tracing.
		traced := env.tr != nil && r%2 == 1
		if traced {
			prev := aomplib.EnableMetrics(true)
			env.counts.addScaled(readCounts(), -1)
			env.tr.on.Store(true)
			one(r, true)
			env.tr.on.Store(false)
			env.counts.addScaled(readCounts(), 1)
			aomplib.EnableMetrics(prev)
		} else {
			one(r, true)
		}
		st.traced = append(st.traced, traced)
		if d := time.Since(t0); d > cost {
			cost = d
		}
	}
	st.elapsed = time.Since(start)
	return st
}

// passPerRound is the library version's time for the workload's fixed
// work in each recorded round, summed over groups.
func passPerRound(st *stats) []float64 {
	return st.perRound(func(g string) []float64 { return st.pass(g) })
}

// perRound sums a per-group sample series over groups, round by round.
func (s *stats) perRound(series func(group string) []float64) []float64 {
	out := make([]float64, len(s.traced))
	for _, g := range s.groups() {
		for i, x := range series(g) {
			out[i] += x
		}
	}
	return out
}

// endToEnd computes the role-defined metrics. Every one is a median of
// per-round paired quotients: the host's speed moves by tens of percent
// for minutes at a time on a shared box, and only versions measured a
// fraction of a second apart see the same host. passOverSeq is the library
// version's time for the workload's fixed work over the sequential
// version's time for its own (the inverse of a speed-up where the two do
// the same work). overRef and serialOverSeq are combined across groups by
// geometric mean.
func endToEnd(st *stats) (passOverSeq, overRef, serialOverSeq float64) {
	seq := st.perRound(func(g string) []float64 { return st.get(g, roleSeq) })
	passOverSeq = median(pairedRatios(passPerRound(st), seq))
	var refs, serials []float64
	for _, g := range st.groups() {
		if r := pairedRatios(st.get(g, roleLib), st.get(g, roleRef)); len(r) > 0 {
			refs = append(refs, median(r))
		}
		if r := pairedRatios(st.get(g, roleSerial), st.get(g, roleSeq)); len(r) > 0 {
			serials = append(serials, median(r))
		}
	}
	return passOverSeq, geomean(refs), geomean(serials)
}

// runtimeCounts are sums of the library's public snapshots (ReadMetrics,
// PoolStats, AdmissionStats); readCounts after minus readCounts before is
// what an interval did.
type runtimeCounts struct {
	n                    map[string]float64 // scalar counters by name
	regionLat, admitWait hist
}

// hist is a latency histogram as plain counts per bucket upper bound (ns).
type hist map[int64]float64

func histOf(h aomplib.MetricsHistogram) hist {
	out := hist{}
	var prev uint64
	for _, b := range h.Buckets { // cumulative in the snapshot
		out[b.UpperNs] = float64(b.Count - prev)
		prev = b.Count
	}
	return out
}

// quantile is the upper bound of the bucket holding rank q. The buckets
// are powers of two, so that is the resolution; the unbounded overflow
// bucket reports the largest finite bound.
func (h hist) quantile(q float64) float64 {
	uppers := make([]int64, 0, len(h))
	total := 0.0
	for u, n := range h {
		uppers = append(uppers, u)
		total += n
	}
	if total <= 0 {
		return 0
	}
	sort.Slice(uppers, func(i, j int) bool { return uppers[i] < uppers[j] })
	cum, last := 0.0, 0.0
	for _, u := range uppers {
		cum += h[u]
		if u != math.MaxInt64 {
			last = float64(u)
		}
		if cum >= q*total {
			break
		}
	}
	return last
}

func readCounts() runtimeCounts {
	m := aomplib.ReadMetrics()
	p := aomplib.PoolStats()
	a := aomplib.AdmissionStats()
	shares := 0.0
	for _, s := range m.LoopShares {
		shares += float64(s.Shares)
	}
	return runtimeCounts{
		n: map[string]float64{
			"regions": float64(m.RegionEntries), "barrier_waits": float64(m.BarrierWaits),
			"barrier_wait_ns": float64(m.BarrierWait.SumNs),
			// One work-sharing encounter on a team of T counts T shares.
			"loop_shares":    shares,
			"steal_attempts": float64(m.StealAttempts), "steals": float64(m.Steals),
			"tasks_spawned": float64(m.TasksSpawned),
			"leases":        float64(p.Leases), "hits": float64(p.Hits),
			"admitted": float64(a.Admitted), "queued": float64(a.Queued),
		},
		regionLat: histOf(m.RegionLatency), admitWait: histOf(m.AdmitWait),
	}
}

// addScaled adds k times d into c.
func (c *runtimeCounts) addScaled(d runtimeCounts, k float64) {
	if c.n == nil {
		c.n, c.regionLat, c.admitWait = map[string]float64{}, hist{}, hist{}
	}
	for name, v := range d.n {
		c.n[name] += k * v
	}
	for u, v := range d.regionLat {
		c.regionLat[u] += k * v
	}
	for u, v := range d.admitWait {
		c.admitWait[u] += k * v
	}
}

// share is a/b, 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
