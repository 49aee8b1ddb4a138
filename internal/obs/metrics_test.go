package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// hooks returns a Sinks feeding this collector alone, so a test drives a
// private tracer through the runtime's own event methods.
func (c *collector) hooks() *Sinks { return &Sinks{tr: c} }

// hooks returns a Sinks feeding this registry alone.
func (m *metricsRegistry) hooks() *Sinks { return &Sinks{m: m} }

// drive pushes one deterministic mix of samples through a registry's
// events, attributing them to worker w and tenant tn — the merge-
// determinism test runs it with different attributions and expects
// identical merged snapshots.
func drive(h *Sinks, w WorkerID, tn uint64, base uint64) {
	h.Region(w, base+1, 0, 4, LeaseHit, 100, 4100)
	h.TaskCreate(w, base+2, TaskDeferred, 200)
	h.TaskRun(w, base+2, 200, 900, 0)
	h.TaskInline(w, base+3)
	h.StealAttempt(w)
	h.StealSuccess(w, base+2, w+1)
	h.Barrier(w, base+1, 2000, 3500)
	h.Work(w, base+1, 1, 0, 0)
	h.AdmitGrant(tn, 700)
}

// Merged snapshots must not depend on which worker (and thus which shard)
// recorded which sample: shard merging is plain addition, so every field,
// latency histograms included, must match bit for bit.
func TestMetricsShardMergeDeterminism(t *testing.T) {
	spreads := [][]WorkerID{
		{0, 0, 0, 0, 0, 0},        // all on one shard
		{0, 1, 2, 3, 4, 5},        // spread across shards
		{NoWorker, 9, 9, 2, 0, 5}, // shared ring slot + repeats
		{63, 64, 65, 0, 1, 2},     // beyond the shard bound: folded
	}
	var want MetricsSnapshot
	for i, workers := range spreads {
		m := newMetricsRegistry(8)
		h := m.hooks()
		for j, w := range workers {
			drive(h, w, uint64(j%3), uint64(j)*10)
		}
		got := m.snapshot()
		if i == 0 {
			want = got
			continue
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("spread %d produced a different snapshot:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if want.RegionEntries != 6 || want.Leases.Hit != 6 || want.BarrierWaits != 6 || want.TasksSpawned != 12 || want.TasksCompleted != 12 {
		t.Fatalf("counter totals wrong: %+v", want)
	}
	if want.RegionLatency.SumNs != 6*4000 || want.SpawnLatency.SumNs != 6*700 || want.BarrierWait.SumNs != 6*1500 {
		t.Fatalf("latency sums wrong: region=%d spawn=%d barrier=%d",
			want.RegionLatency.SumNs, want.SpawnLatency.SumNs, want.BarrierWait.SumNs)
	}
}

// Histogram buckets are log2 by bit length; the boundary pins are the
// contract the exposition's le bounds depend on.
func TestHistogramBucketBoundaries(t *testing.T) {
	var h histShard
	for _, ns := range []int64{0, 1, 2, 3, 4, 1023, 1024, -5} {
		h.record(ns)
	}
	// Expected buckets: 0 -> b0; 1 -> b1; 2,3 -> b2; 4 -> b3;
	// 1023 -> b10; 1024 -> b11; -5 files as 0, in b0.
	wantCounts := map[int]uint64{0: 2, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1}
	for i := 0; i <= histSlots; i++ {
		if got := h.counts[i].Load(); got != wantCounts[i] {
			t.Fatalf("bucket %d (le %dns) = %d, want %d", i, bucketUpperNs(i), got, wantCounts[i])
		}
	}
	if got := h.sumNs.Load(); got != 0+1+2+3+4+1023+1024 {
		t.Fatalf("sum = %d, want %d (a negative sample must add 0)", got, 2057)
	}
	// Upper bounds: bucket i covers values with bit length i, so the
	// inclusive bound is 2^i - 1.
	for i, want := range map[int]int64{0: 0, 1: 1, 2: 3, 10: 1023, 11: 2047} {
		if got := bucketUpperNs(i); got != want {
			t.Fatalf("bucketUpperNs(%d) = %d, want %d", i, got, want)
		}
	}
	if bucketUpperNs(histSlots) != math.MaxInt64 {
		t.Fatal("overflow bucket must be unbounded")
	}

	// A sample beyond every finite bucket lands in the overflow slot.
	var o histShard
	o.record(math.MaxInt64)
	if o.counts[histSlots].Load() != 1 {
		t.Fatal("MaxInt64 sample missed the overflow bucket")
	}
}

// Snapshots racing with recorders must be safe (-race is the oracle) and
// the final quiesced snapshot exact.
func TestMetricsConcurrentRecordVsSnapshot(t *testing.T) {
	m := newMetricsRegistry(8)
	h := m.hooks()
	const goroutines, iters = 8, 3000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := m.snapshot()
			if s.TasksCompleted > s.TasksSpawned || s.Steals > s.StealAttempts {
				t.Errorf("completed or steals ran ahead of its bound in a racing snapshot: %+v", s)
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := WorkerID(g)
			for i := 0; i < iters; i++ {
				h.TaskCreate(w, uint64(g*iters+i+1), TaskDeferred, 1)
				h.TaskRun(w, uint64(g*iters+i+1), 1, 2, 0)
				h.StealAttempt(w)
				h.StealSuccess(w, uint64(g*iters+i+1), w)
				h.Barrier(w, 1, 0, int64(i))
				h.AdmitGrant(uint64(g), 0)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := m.snapshot()
	const total = goroutines * iters
	if s.TasksSpawned != total || s.TasksCompleted != total {
		t.Fatalf("tasks: spawned=%d completed=%d, want %d", s.TasksSpawned, s.TasksCompleted, total)
	}
	if s.BarrierWait.Count != total {
		t.Fatalf("barrier histogram count = %d, want %d", s.BarrierWait.Count, total)
	}
	if s.AdmitWait.Count != total {
		t.Fatalf("admit-wait histogram count = %d, want %d", s.AdmitWait.Count, total)
	}
}

// The tracer's Stats race its hooks too: a racing read must see
// EventsRecorded never run backwards, and the quiesced accounting must
// reconcile exactly — every record is either stored or dropped.
func TestCollectorConcurrentRecordVsStats(t *testing.T) {
	c := newCollector(8, 16)
	h := c.hooks()
	c.start()
	const goroutines, iters = 8, 3000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.stats()
			if s.EventsRecorded < last {
				t.Errorf("EventsRecorded ran backwards in racing stats: %d after %d", s.EventsRecorded, last)
				return
			}
			last = s.EventsRecorded
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := WorkerID(g)
			for i := 0; i < iters; i++ {
				id := uint64(g*iters + i + 1)
				h.Region(w, id, 1, 2, LeaseCold, 1, 2)
				h.TaskCreate(w, id, TaskDeferred, 1)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := c.stats()
	const total = goroutines * iters * 2
	if s.EventsRecorded+s.EventsDropped != total {
		t.Fatalf("quiesced stats %+v: recorded + dropped != %d emitted", s, total)
	}
}

// The registry's own exposition must satisfy its own strict lint, and
// counters must round-trip: values written are values parsed.
func TestExpositionRoundTrip(t *testing.T) {
	prevEnabled := EnableMetrics(true)
	defer EnableMetrics(prevEnabled)
	h := &Sinks{m: metrics}

	before := ReadMetrics()
	h.Region(1, 777001, 0, 4, LeaseHit, 0, 1500)
	h.Region(1, 777002, 0, 1, LeaseSolo, 0, 500)
	h.Region(1, 777003, 0, 1, LeaseSolo, 0, 500)
	h.AdmitGrant(242, 900)
	h.Work(1, 777001, 0, 0, 0)

	var buf bytes.Buffer
	extra := Family{Name: "aomp_roundtrip_gauge", Help: "test gauge", Type: "gauge",
		Samples: []Sample{{Value: 12.5}}}
	if err := WriteMetricsText(&buf, extra); err != nil {
		t.Fatalf("WriteMetricsText: %v", err)
	}
	text := buf.String()
	if err := LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("own exposition fails own lint: %v\n%s", err, text)
	}
	snap := ReadMetrics()
	for _, want := range []string{
		fmt.Sprintf(`aomp_region_entries_total{lease="hit"} %d`, before.Leases.Hit+1),
		fmt.Sprintf(`aomp_region_entries_total{lease="solo"} %d`, before.Leases.Solo+2),
		fmt.Sprintf(`aomp_region_entries_total{lease="cold"} %d`, snap.Leases.Cold),
		fmt.Sprintf(`aomp_region_entries_total{lease="bypass"} %d`, snap.Leases.Bypass),
		fmt.Sprintf("aomp_region_latency_seconds_count %d", snap.RegionEntries),
		"aomp_admission_wait_seconds_count ",
		`aomp_region_latency_seconds_bucket{le="+Inf"} `,
		"aomp_region_latency_seconds_count ",
		"aomp_roundtrip_gauge 12.5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// The lint is the CI oracle; it must reject the failure classes it
// exists to catch.
func TestLintRejections(t *testing.T) {
	cases := map[string]string{
		"duplicate sample": `# HELP aomp_x help
# TYPE aomp_x counter
aomp_x 1
aomp_x 2
`,
		"duplicate TYPE": `# TYPE aomp_x counter
# TYPE aomp_x counter
aomp_x 1
`,
		"TYPE after sample": `# TYPE aomp_x counter
aomp_x 1
# TYPE aomp_y counter
# TYPE aomp_x gauge
`,
		"undeclared family": `# TYPE aomp_x counter
aomp_y 1
`,
		"invalid metric name": `# TYPE aomp_x counter
0badname 1
`,
		"invalid label name": `# TYPE aomp_x counter
aomp_x{0bad="v"} 1
`,
		"unparseable value": `# TYPE aomp_x counter
aomp_x one
`,
		"histogram without +Inf": `# TYPE aomp_h histogram
aomp_h_bucket{le="0.5"} 1
aomp_h_count 1
`,
		"decreasing buckets": `# TYPE aomp_h histogram
aomp_h_bucket{le="0.5"} 5
aomp_h_bucket{le="1"} 3
aomp_h_bucket{le="+Inf"} 5
aomp_h_count 5
`,
		"count disagrees with +Inf": `# TYPE aomp_h histogram
aomp_h_bucket{le="+Inf"} 5
aomp_h_count 7
`,
	}
	for name, text := range cases {
		if err := LintExposition(strings.NewReader(text)); err == nil {
			t.Errorf("lint accepted %s:\n%s", name, text)
		}
	}
	good := `# HELP aomp_x fine
# TYPE aomp_x counter
aomp_x{a="1"} 1
aomp_x{a="2"} 2
`
	if err := LintExposition(strings.NewReader(good)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

// The exposition must stay lint-clean whatever the registry's state —
// including the zero snapshot ReadMetrics fabricates before the first
// EnableMetrics (every histogram carries its +Inf bucket, never nils).
func TestZeroSnapshotWellFormed(t *testing.T) {
	s := ReadMetrics()
	for _, h := range []HistogramSnapshot{s.RegionLatency, s.BarrierWait, s.AdmitWait, s.SpawnLatency} {
		if len(h.Buckets) == 0 {
			t.Fatalf("histogram %q snapshot has no buckets (missing +Inf)", h.Name)
		}
		if h.Buckets[len(h.Buckets)-1].UpperNs != math.MaxInt64 {
			t.Fatalf("histogram %q last bucket is not +Inf", h.Name)
		}
	}
	var buf bytes.Buffer
	if err := WriteMetricsText(&buf); err != nil {
		t.Fatalf("WriteMetricsText on zero registry: %v", err)
	}
	if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("zero exposition fails lint: %v\n%s", err, buf.String())
	}
}
