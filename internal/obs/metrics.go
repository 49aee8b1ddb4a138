package obs

import (
	"math"
	"math/bits"
	"sync/atomic"

	"aomplib/internal/sched"
)

// Always-on production metrics. Where the tracer buffers a timeline for
// post-hoc inspection, the metrics registry keeps cheap cumulative
// aggregates a monitoring system scrapes continuously: counters and
// log-bucketed histograms fed from the same emit points the tracer
// uses. The registry is sized and allocated up front, so the enabled
// record path touches only preallocated padded atomics — no allocation,
// no locks — and the disabled path is the emit points' usual one atomic
// load and predicted branch.
//
// Shard discipline: every per-worker metric is striped across
// cache-line-isolated shards indexed by the emitting WorkerID, folded
// modulo the shard bound exactly like the tracer's rings, so two workers
// never contend on a line in steady state. Snapshots merge shards with
// plain addition — commutative, so the merged totals are independent of
// which worker's samples landed on which shard.

// histSlots is the number of log2 latency buckets: bucket i counts
// samples whose nanosecond value has bit length i (2^(i-1) <= v < 2^i;
// bucket 0 counts zeros). 40 buckets cover 1ns to ~550s; larger samples
// land in the overflow bucket, rendered as +Inf.
const histSlots = 40

// histShard is one worker's slice of a histogram: bucket counts plus a
// nanosecond sum, all plain atomics owned (in steady state) by a single
// worker.
type histShard struct {
	counts   [histSlots + 1]atomic.Uint64 // [histSlots] is the overflow bucket
	sumNs    atomic.Uint64
	_padding [24]byte
}

// record files one nanosecond sample. A negative sample (a clock anomaly)
// files as 0, so a histogram's count is its event count.
func (h *histShard) record(ns int64) {
	ns = max(ns, 0)
	b := bits.Len64(uint64(ns))
	if b > histSlots {
		b = histSlots
	}
	h.counts[b].Add(1)
	h.sumNs.Add(uint64(ns))
}

// bucketUpperNs returns the inclusive nanosecond upper bound of bucket i
// (the Prometheus `le` value); the overflow bucket has no finite bound.
func bucketUpperNs(i int) int64 {
	if i >= histSlots {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// leaseKinds is the number of LeaseKind values, one region-entry counter
// each.
const leaseKinds = int(LeaseBypass) + 1

// schedKinds bounds the per-schedule loop-share counter vector. Larger
// kind values (future schedules, corrupt emits) fold onto the last slot.
const schedKinds = 16

// metricShard is one worker's slice of every sharded metric, padded so
// two shards never share a cache line head or tail.
type metricShard struct {
	regionEntries  [leaseKinds]atomic.Uint64
	stealAttempts  atomic.Uint64
	steals         atomic.Uint64
	tasksSpawned   atomic.Uint64
	tasksCompleted atomic.Uint64
	loopShares     [schedKinds]atomic.Uint64

	regionLat   histShard
	barrierWait histShard
	spawnLat    histShard
	_padding    [64]byte
}

// metricsRegistry is the process-wide metrics state. All storage is
// allocated at construction; the record path only indexes into it.
type metricsRegistry struct {
	shards []metricShard

	// admitWait is recorded on entering goroutines (no worker identity);
	// a single shard keeps it simple — the admission path already takes
	// the controller mutex, so one more shared line is not the bottleneck.
	admitWait histShard
}

func newMetricsRegistry(shards int) *metricsRegistry {
	if shards < 2 {
		shards = 2
	}
	return &metricsRegistry{shards: make([]metricShard, shards)}
}

// shard folds a WorkerID onto its metric shard, exactly like the tracer
// folds rings: index 0 belongs to NoWorker, workers beyond the bound
// share the tail slots.
func (m *metricsRegistry) shard(w WorkerID) *metricShard {
	idx := int(w) + 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(m.shards) {
		idx = 1 + (idx-1)%(len(m.shards)-1)
	}
	return &m.shards[idx]
}

// ------------------------------------------------------- snapshot types --

// HistogramBucket is one cumulative bucket of a HistogramSnapshot:
// the count of samples at or below UpperNs nanoseconds. The overflow
// bucket carries UpperNs == math.MaxInt64 and equals Count.
type HistogramBucket struct {
	UpperNs int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// HistogramSnapshot is one merged histogram: total sample count, total
// nanoseconds, and cumulative log2 buckets up to the highest occupied
// one (the overflow bucket is always last). Merging the per-worker
// shards is plain addition, so the snapshot is deterministic regardless
// of which worker recorded which sample.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Count   uint64            `json:"count"`
	SumNs   uint64            `json:"sum_ns"`
	Buckets []HistogramBucket `json:"buckets"`
}

// ScheduleShareCount is one schedule kind's worker-share counter: how
// many times a worker began its share of a work-sharing encounter
// resolved to this schedule.
type ScheduleShareCount struct {
	Schedule string `json:"schedule"`
	Shares   uint64 `json:"shares"`
}

// LeaseCounts splits region entries by how each obtained its team
// (LeaseKind). Hit and Cold are the hot-team pool's leases.
type LeaseCounts struct {
	Hit    uint64 `json:"hit"`
	Cold   uint64 `json:"cold"`
	Solo   uint64 `json:"solo"`
	Bypass uint64 `json:"bypass"`
}

// MetricsSnapshot is the merged view of the always-on metrics registry.
// Counters are cumulative since EnableMetrics first turned the registry
// on; they are never reset. RegionEntries and BarrierWaits are the counts
// of RegionLatency and BarrierWait: every entry and every barrier passage
// is one sample.
type MetricsSnapshot struct {
	Enabled bool `json:"enabled"`

	RegionEntries  uint64      `json:"region_entries"`
	Leases         LeaseCounts `json:"leases"`
	BarrierWaits   uint64      `json:"barrier_waits"`
	StealAttempts  uint64      `json:"steal_attempts"`
	Steals         uint64      `json:"steals"`
	TasksSpawned   uint64      `json:"tasks_spawned"`
	TasksCompleted uint64      `json:"tasks_completed"`

	LoopShares []ScheduleShareCount `json:"loop_shares,omitempty"`

	RegionLatency HistogramSnapshot `json:"region_latency"`
	BarrierWait   HistogramSnapshot `json:"barrier_wait"`
	AdmitWait     HistogramSnapshot `json:"admit_wait"`
	SpawnLatency  HistogramSnapshot `json:"spawn_latency"`
}

// snapshotHist merges histogram shards (selected by sel) into cumulative
// buckets.
func (m *metricsRegistry) snapshotHist(name string, sel func(*metricShard) *histShard) HistogramSnapshot {
	var counts [histSlots + 1]uint64
	var sum uint64
	add := func(h *histShard) {
		for i := range h.counts {
			counts[i] += h.counts[i].Load()
		}
		sum += h.sumNs.Load()
	}
	if sel == nil {
		add(&m.admitWait)
	} else {
		for i := range m.shards {
			add(sel(&m.shards[i]))
		}
	}
	out := HistogramSnapshot{Name: name, SumNs: sum}
	top := 0
	var cum uint64
	for i, c := range counts {
		cum += c
		if c != 0 {
			top = i
		}
	}
	out.Count = cum
	cum = 0
	for i := 0; i <= top && i < histSlots; i++ {
		cum += counts[i]
		out.Buckets = append(out.Buckets, HistogramBucket{UpperNs: bucketUpperNs(i), Count: cum})
	}
	out.Buckets = append(out.Buckets, HistogramBucket{UpperNs: math.MaxInt64, Count: out.Count})
	return out
}

// snapshot merges every shard into one MetricsSnapshot.
//
// Snapshots race the hooks, so a counter bounded by another is read first:
// a task's completion is counted after its spawn (often on another shard)
// and a steal after its attempt. Reading every shard of the dependent before
// any shard of its bound keeps completed ≤ spawned and steals ≤ attempts in
// every snapshot.
func (m *metricsRegistry) snapshot() MetricsSnapshot {
	sinks := active.Load()
	out := MetricsSnapshot{Enabled: sinks != nil && sinks.m == m}
	for i := range m.shards {
		s := &m.shards[i]
		out.TasksCompleted += s.tasksCompleted.Load()
		out.Steals += s.steals.Load()
	}
	var loop [schedKinds]uint64
	var leases [leaseKinds]uint64
	for i := range m.shards {
		s := &m.shards[i]
		for k := range s.regionEntries {
			leases[k] += s.regionEntries[k].Load()
		}
		out.StealAttempts += s.stealAttempts.Load()
		out.TasksSpawned += s.tasksSpawned.Load()
		for k := range s.loopShares {
			loop[k] += s.loopShares[k].Load()
		}
	}
	for k, n := range loop {
		if n != 0 {
			out.LoopShares = append(out.LoopShares, ScheduleShareCount{
				Schedule: sched.Kind(k).String(), Shares: n,
			})
		}
	}
	out.Leases = LeaseCounts{Hit: leases[LeaseHit], Cold: leases[LeaseCold], Solo: leases[LeaseSolo], Bypass: leases[LeaseBypass]}
	out.RegionLatency = m.snapshotHist("region_latency", func(s *metricShard) *histShard { return &s.regionLat })
	out.BarrierWait = m.snapshotHist("barrier_wait", func(s *metricShard) *histShard { return &s.barrierWait })
	out.RegionEntries, out.BarrierWaits = out.RegionLatency.Count, out.BarrierWait.Count
	out.AdmitWait = m.snapshotHist("admit_wait", nil)
	out.SpawnLatency = m.snapshotHist("spawn_latency", func(s *metricShard) *histShard { return &s.spawnLat })
	return out
}

// ------------------------------------------------------------ public API --

// metrics is the process-wide registry behind EnableMetrics/ReadMetrics.
// Built lazily under installMu on first enable so tests that never touch
// metrics pay nothing.
var metrics *metricsRegistry

// EnableMetrics turns the always-on metrics registry on or off and
// returns the previous setting. Enabled, every runtime emit point also
// feeds the sharded counters and histograms behind ReadMetrics — the
// record path is preallocated padded atomics, 0 allocs/op; counters
// accumulate until process exit and are never reset. Disabled (the
// default), the emit points cost their usual one atomic load and branch.
// Metrics are independent of the tracer: enabling one never evicts the
// other.
func EnableMetrics(on bool) bool {
	return update(func(s *Sinks) {
		s.m = nil
		if on {
			if metrics == nil {
				metrics = newMetricsRegistry(defaultMaxRings())
			}
			s.m = metrics
		}
	}).m != nil
}

// ReadMetrics merges every shard of the metrics registry into one
// snapshot. Safe to call at any time from any goroutine, including with
// recording in flight — counters are monotone, so a racing scrape is at
// worst one sample behind. Before the first EnableMetrics it returns a
// zero snapshot.
func ReadMetrics() MetricsSnapshot {
	installMu.Lock()
	m := metrics
	installMu.Unlock()
	if m == nil {
		return MetricsSnapshot{
			RegionLatency: HistogramSnapshot{Name: "region_latency", Buckets: []HistogramBucket{{UpperNs: math.MaxInt64}}},
			BarrierWait:   HistogramSnapshot{Name: "barrier_wait", Buckets: []HistogramBucket{{UpperNs: math.MaxInt64}}},
			AdmitWait:     HistogramSnapshot{Name: "admit_wait", Buckets: []HistogramBucket{{UpperNs: math.MaxInt64}}},
			SpawnLatency:  HistogramSnapshot{Name: "spawn_latency", Buckets: []HistogramBucket{{UpperNs: math.MaxInt64}}},
		}
	}
	return m.snapshot()
}
