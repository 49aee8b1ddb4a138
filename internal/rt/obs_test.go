package rt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aomplib/internal/obs"
)

// A region exercising every construct must light up the corresponding
// metrics counters and trace events, and the drained trace must be valid
// Chrome JSON. Counts come from the registry; events that only the
// timeline carries (region slices with their leases, inline tasks,
// dependence releases) come from the drained trace.
func TestObsEmitCoverage(t *testing.T) {
	prevM := obs.EnableMetrics(true)
	defer obs.EnableMetrics(prevM)
	before, beforeTrace := obs.ReadMetrics(), obs.ReadStats()
	obs.StartTrace()
	defer obs.EnableTracing(false)

	Region(4, func(w *Worker) {
		if w.ID == 0 {
			var x, y int
			SpawnDep(func() { x = 1 }, Deps{Out: []any{&x}})
			SpawnDep(func() { y = x }, Deps{In: []any{&x}, Out: []any{&y}})
			for i := 0; i < 32; i++ {
				Spawn(func() {})
			}
		}
		w.Team.Barrier().Wait()
		if w.ID == 0 {
			// Hold the owner back until a team-mate has gone stealing, or it
			// may drain its own deque before anyone gets to try.
			deadline := time.Now().Add(10 * time.Second)
			for obs.ReadMetrics().StealAttempts == before.StealAttempts && time.Now().Before(deadline) {
				runtime.Gosched()
			}
		}
		TaskWait()
	})
	// A spawn on a team of one: the inline-task path.
	Region(1, func(*Worker) { Spawn(func() {}) })

	m, st := obs.ReadMetrics(), obs.ReadStats()
	delta := func(name string, now, then uint64) {
		t.Helper()
		if now <= then {
			t.Errorf("%s did not advance: %d -> %d", name, then, now)
		}
	}
	delta("RegionEntries", m.RegionEntries, before.RegionEntries)
	delta("TasksSpawned", m.TasksSpawned, before.TasksSpawned)
	delta("TasksCompleted", m.TasksCompleted, before.TasksCompleted)
	delta("BarrierWaits", m.BarrierWaits, before.BarrierWaits)
	delta("StealAttempts", m.StealAttempts, before.StealAttempts)
	delta("EventsRecorded", st.EventsRecorded, beforeTrace.EventsRecorded)

	var buf bytes.Buffer
	if err := obs.StopTrace(&buf); err != nil {
		t.Fatalf("StopTrace: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	tracks := 0
	names := map[any]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev["name"]] = true
		if ev["name"] == "thread_name" {
			if args, ok := ev["args"].(map[string]any); ok {
				if n, _ := args["name"].(string); strings.HasPrefix(n, "worker ") {
					tracks++
				}
			}
		}
	}
	if tracks < 4 {
		t.Fatalf("trace has %d worker tracks, want >= 4 (one per team worker)", tracks)
	}
	for _, want := range []string{"region", "inline task", "dep release"} {
		if !names[want] {
			t.Errorf("trace has no %q event", want)
		}
	}
}

// TestOutOfRegionTasksCounted: a task spawned outside any region — with
// clauses or without, future or not — is one create event, one executed
// slice and one spawned and one completed task, so completed never runs
// ahead of spawned, and TaskWait returns with every completion counted.
func TestOutOfRegionTasksCounted(t *testing.T) {
	defer obs.EnableMetrics(obs.EnableMetrics(true))
	defer obs.EnableTracing(obs.EnableTracing(false))
	const chain = 5
	before := obs.ReadMetrics()
	var x int
	evs := recordTrace(t, func() {
		for i := 0; i < chain; i++ {
			SpawnDep(func() { x++ }, Deps{InOut: []any{&x}})
		}
		f := SpawnFuture(nil, func() any { return x }, Deps{In: []any{&x}})
		if v := f.Get(); v != chain {
			t.Errorf("the dependent future read %v, want %d", v, chain)
		}
		Spawn(func() {})
		TaskWait()
	})
	const n = chain + 2
	m := obs.ReadMetrics()
	if s, c := m.TasksSpawned-before.TasksSpawned, m.TasksCompleted-before.TasksCompleted; s != n || c != n {
		t.Errorf("%d out-of-region tasks counted %d spawned, %d completed", n, s, c)
	}
	creates, slices := 0, 0
	for _, ev := range evs {
		if ev.Name == "spawn" && ev.Args["kind"] != nil {
			creates++
		}
		if strings.HasPrefix(ev.Name, "task ") {
			slices++
		}
	}
	if creates != n || slices != n {
		t.Errorf("the trace holds %d creates and %d task slices, want %d of each", creates, slices, n)
	}
	if k := countEvents(evs, "inline task"); k != 0 {
		t.Errorf("the trace holds %d inline tasks, want 0: out-of-region tasks are deferred to goroutines", k)
	}
}

// TestRegionEntriesByLeaseKind: with metrics on, each count is kept once.
// Every region entry is one region-latency sample, counted under the lease
// kind it ran with: the first entry of a width spawns cold, later ones hit
// the pool, a narrowed entry runs solo, hot teams off spawn cold and an
// entry admission refuses bypasses the pool. The pool's Leases and Hits are
// the hit and cold counts, so a narrowed entry leases no team. Every
// barrier passage is one barrier-wait sample.
func TestRegionEntriesByLeaseKind(t *testing.T) {
	defer resetPool(t)()
	defer obs.EnableMetrics(obs.EnableMetrics(true))
	body := func(*Worker, any) {}
	g := new(Grain)
	g.full.Store(1000) // a short region whose hand-off is all of it
	g.hand.Store(1000)
	m0, p0 := obs.ReadMetrics(), ReadPoolStats()

	RegionArg(2, body, nil)
	RegionArg(2, body, nil)
	RegionArg(2, body, nil)
	g.RegionArg(2, body, nil)
	prev := SetHotTeams(false)
	RegionArg(2, body, nil)
	SetHotTeams(prev)
	const phases = 3
	Region(2, func(w *Worker) {
		for range phases {
			w.Team.Barrier().Wait()
		}
	})
	admissionTestSetup(t, 1, AdmitReject, 0)
	release := make(chan struct{})
	started, done := occupyRegion(t, "lease-hold", release)
	<-started
	tok := EnterTenant("lease-shed")
	RegionArg(2, body, nil)
	tok.Exit()
	close(release)
	<-done

	m, p := obs.ReadMetrics(), ReadPoolStats()
	l := obs.LeaseCounts{
		Hit: m.Leases.Hit - m0.Leases.Hit, Cold: m.Leases.Cold - m0.Leases.Cold,
		Solo: m.Leases.Solo - m0.Leases.Solo, Bypass: m.Leases.Bypass - m0.Leases.Bypass,
	}
	// Cold: the first entry, the entry with hot teams off and the barrier
	// region (re-enabling drained the pool); the occupying region hits.
	if want := (obs.LeaseCounts{Hit: 3, Cold: 3, Solo: 1, Bypass: 1}); l != want {
		t.Errorf("region entries by lease %+v, want %+v", l, want)
	}
	if d, want := m.RegionEntries-m0.RegionEntries, l.Hit+l.Cold+l.Solo+l.Bypass; d != want || m.RegionLatency.Count-m0.RegionLatency.Count != want {
		t.Errorf("%d entries by lease, %d region entries, %d region-latency samples", want, d, m.RegionLatency.Count-m0.RegionLatency.Count)
	}
	if d, h := p.Leases-p0.Leases, p.Hits-p0.Hits; d != l.Hit+l.Cold || h != l.Hit {
		t.Errorf("pool leases %d and hits %d, want %d and %d", d, h, l.Hit+l.Cold, l.Hit)
	}
	if d := m.BarrierWaits - m0.BarrierWaits; d != 2*phases || m.BarrierWait.Count-m0.BarrierWait.Count != d {
		t.Errorf("%d barrier passages counted %d waits and %d wait samples", 2*phases, d, m.BarrierWait.Count-m0.BarrierWait.Count)
	}
}

// traceEvent is one Chrome trace event, as the tests read it.
type traceEvent struct {
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

// recordTrace runs fn under a fresh trace and returns its events. It fails
// t if the rings dropped any: a dropped event could hide what a test
// counts.
func recordTrace(t testing.TB, fn func()) []traceEvent {
	t.Helper()
	drops := obs.ReadStats().RingDrops
	obs.StartTrace()
	fn()
	var buf bytes.Buffer
	if err := obs.StopTrace(&buf); err != nil {
		t.Errorf("StopTrace: %v", err)
	}
	if d := obs.ReadStats().RingDrops - drops; d != 0 {
		t.Errorf("the trace dropped %d events", d)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Errorf("trace is not valid JSON: %v", err)
	}
	return trace.TraceEvents
}

// countEvents counts the trace events named name.
func countEvents(evs []traceEvent, name string) int {
	n := 0
	for _, ev := range evs {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// The tracer and the metrics registry consume the same events on their
// own: with both on, a region shows in each; turning one off leaves the
// other working; and neither moves the other's books.
func TestObsConsumersIndependent(t *testing.T) {
	defer obs.EnableMetrics(obs.EnableMetrics(false))
	defer obs.EnableTracing(obs.EnableTracing(false))
	region := func() {
		Region(2, func(w *Worker) {
			Spawn(func() {})
			w.Team.Barrier().Wait()
		})
	}
	forks := func(evs []traceEvent) int {
		n := 0
		for _, ev := range evs {
			if ev.Name == "region" && ev.Args["size"] == float64(2) {
				n++
			}
		}
		return n
	}
	counters := func() string {
		m := obs.ReadMetrics()
		m.Enabled = false
		return fmt.Sprintf("%+v", m)
	}

	obs.EnableMetrics(true)
	before := obs.ReadMetrics().RegionEntries
	evs := recordTrace(t, region)
	if d := obs.ReadMetrics().RegionEntries - before; d != 1 {
		t.Errorf("both on: RegionEntries moved by %d, want 1", d)
	}
	if n := forks(evs); n != 1 {
		t.Errorf("both on: the trace holds %d region slices of size 2, want 1", n)
	}

	var frozen string
	evs = recordTrace(t, func() {
		obs.EnableMetrics(false)
		frozen = counters()
		region()
	})
	if n := forks(evs); n != 1 {
		t.Errorf("metrics off: the trace holds %d region slices of size 2, want 1", n)
	}
	if now := counters(); now != frozen {
		t.Errorf("the tracer alone moved the metrics:\n was %s\n now %s", frozen, now)
	}

	obs.EnableMetrics(true)
	obs.StartTrace()
	obs.EnableTracing(false)
	before = obs.ReadMetrics().RegionEntries
	recorded := obs.ReadStats().EventsRecorded
	region()
	if d := obs.ReadMetrics().RegionEntries - before; d != 1 {
		t.Errorf("tracing off: RegionEntries moved by %d, want 1", d)
	}
	if now := obs.ReadStats().EventsRecorded; now != recorded {
		t.Errorf("metrics alone recorded trace events: %d -> %d", recorded, now)
	}
}

// TestTracedRegionRecordsOnePerSlice: a warm traced width-2 region is three
// records — its region slice and each worker's implicit slice — each
// written once, when its slice ends.
func TestTracedRegionRecordsOnePerSlice(t *testing.T) {
	defer resetPool(t)()
	defer obs.EnableTracing(obs.EnableTracing(false))
	body := func(*Worker) {}
	Region(2, body) // the pool now holds a warm team of two
	obs.StartTrace()
	Region(2, body) // every worker's ring exists
	before := obs.ReadStats().EventsRecorded
	Region(2, body)
	if d := obs.ReadStats().EventsRecorded - before; d != 3 {
		t.Errorf("a warm traced width-2 region recorded %d events, want 3", d)
	}
	obs.StopTrace(io.Discard)
}

// TestMetricsLatenciesExact: every deferred task's spawn→run latency and
// every region's latency is one histogram sample, however many are in
// flight at once: the samples are timed from the task and the region entry
// themselves, not paired through a table.
func TestMetricsLatenciesExact(t *testing.T) {
	defer obs.EnableMetrics(obs.EnableMetrics(true))
	const tasks = 5000
	before := obs.ReadMetrics()
	spawned := make(chan struct{})
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			<-spawned // no team-mate runs a task before all are queued
			return
		}
		for i := 0; i < tasks; i++ {
			Spawn(func() {})
		}
		close(spawned)
		TaskWait()
	})
	m := obs.ReadMetrics()
	if d := m.SpawnLatency.Count - before.SpawnLatency.Count; d != tasks {
		t.Errorf("%d tasks in flight at once left %d spawn-latency samples, want %d", tasks, d, tasks)
	}
	l, l0 := m.Leases, before.Leases
	if d, want := m.RegionLatency.Count-before.RegionLatency.Count, l.Hit+l.Cold+l.Solo+l.Bypass-(l0.Hit+l0.Cold+l0.Solo+l0.Bypass); d != want || d == 0 {
		t.Errorf("%d region entries left %d region-latency samples", want, d)
	}
}

// TestRegionSliceLeaseKinds: each way of entering a region — a narrowed
// entry on its record's team of one, a pool hit, a cold lease with hot
// teams off, an entry degraded by admission — exports exactly one region
// slice with the width it ran at and how it obtained its team.
func TestRegionSliceLeaseKinds(t *testing.T) {
	defer resetPool(t)()
	defer obs.EnableTracing(obs.EnableTracing(false))
	body := func(*Worker, any) {}
	check := func(name string, size float64, lease string, enter func()) {
		t.Helper()
		var regions []traceEvent
		for _, ev := range recordTrace(t, enter) {
			if ev.Name == "region" {
				regions = append(regions, ev)
			}
		}
		if len(regions) != 1 || regions[0].Args["size"] != size || regions[0].Args["lease"] != lease {
			t.Errorf("%s: region slices %v, want one of size %v leased %q", name, regions, size, lease)
		}
	}

	g := new(Grain)
	g.full.Store(1000) // a short region whose hand-off is all of it
	g.hand.Store(1000)
	check("narrowed", 1, "solo", func() { g.RegionArg(2, body, nil) })

	RegionArg(2, body, nil)
	check("pool hit", 2, "pool hit", func() { RegionArg(2, body, nil) })

	prev := SetHotTeams(false)
	check("hot teams off", 2, "cold", func() { RegionArg(2, body, nil) })
	SetHotTeams(prev)

	admissionTestSetup(t, 1, AdmitReject, 0)
	release := make(chan struct{})
	started, done := occupyRegion(t, "lease-hold", release)
	<-started
	check("degraded", 1, "bypass", func() {
		tok := EnterTenant("lease-shed")
		RegionArg(2, body, nil)
		tok.Exit()
	})
	close(release)
	<-done
}

// The CI allocation gates for the tracing-enabled emit path: a warm region
// entry and the task spawn path must stay 0 allocs/op with the tracer
// installed and recording. Both the ring-append and the buffer-full drop
// path are allocation-free; a long benchmark run exercises both.

func BenchmarkRegionEntryWarmTraced(b *testing.B) {
	prev := SetHotTeams(true)
	defer SetHotTeams(prev)
	obs.StartTrace()
	defer obs.EnableTracing(false)
	b.ReportAllocs()
	Region(2, func(w *Worker) {}) // warm team + register rings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1023 == 0 {
			// Reset the rings periodically so the gate measures the record
			// path, not (mostly) the cheaper buffer-full drop path.
			obs.StartTrace()
		}
		Region(2, func(w *Worker) {})
	}
}

func BenchmarkTaskSpawnWaitTraced(b *testing.B) {
	obs.StartTrace()
	defer obs.EnableTracing(false)
	b.ReportAllocs()
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		var x int
		body := func() { x++ }
		Spawn(body)
		TaskWait() // register rings before the measured loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i&4095 == 0 {
				// Keep the rings drained so spawns measure the record path.
				obs.StartTrace()
			}
			Spawn(body)
			if i&63 == 63 {
				TaskWait()
			}
		}
		TaskWait()
		b.StopTimer()
		_ = x
	})
}

// The CI allocation gates for the metrics-enabled emit path mirror the
// traced ones: with the always-on registry recording, a warm region entry
// and the task spawn path must stay 0 allocs/op — the registry's record
// path is preallocated padded atomics, nothing allocating.

func BenchmarkRegionEntryWarmMetrics(b *testing.B) {
	prev := SetHotTeams(true)
	defer SetHotTeams(prev)
	prevM := obs.EnableMetrics(true)
	defer obs.EnableMetrics(prevM)
	b.ReportAllocs()
	Region(2, func(w *Worker) {}) // warm team + allocate shards
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Region(2, func(w *Worker) {})
	}
}

func BenchmarkTaskSpawnWaitMetrics(b *testing.B) {
	prevM := obs.EnableMetrics(true)
	defer obs.EnableMetrics(prevM)
	b.ReportAllocs()
	Region(2, func(w *Worker) {
		if w.ID != 0 {
			return
		}
		var x int
		body := func() { x++ }
		Spawn(body)
		TaskWait() // touch the shards before the measured loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Spawn(body)
			if i&63 == 63 {
				TaskWait()
			}
		}
		TaskWait()
		b.StopTimer()
		_ = x
	})
}

// The CI allocation gates for both consumers at once: tracer recording and
// metrics on, each emit point feeds the ring and the registry's shard.

func BenchmarkRegionEntryWarmTracedMetrics(b *testing.B) {
	prevM := obs.EnableMetrics(true)
	defer obs.EnableMetrics(prevM)
	BenchmarkRegionEntryWarmTraced(b)
}

func BenchmarkTaskSpawnWaitTracedMetrics(b *testing.B) {
	prevM := obs.EnableMetrics(true)
	defer obs.EnableMetrics(prevM)
	BenchmarkTaskSpawnWaitTraced(b)
}

// TestHotTeamTraceDrainRacesRetirement drains the trace (StopTrace →
// ring drains → immediate StartTrace reset) while teams are being
// retired under it — worker panics poisoning teams, SetPoolSize evicting
// cached ones — so retiring workers' final emits race the drain's
// writer-exclusion handshake. Survival under -race is the point: no torn
// records, no deadlock between a drain and a dying team, and the exported
// JSON stays parseable every cycle.
func TestHotTeamTraceDrainRacesRetirement(t *testing.T) {
	defer resetPool(t)()
	prevPool := SetPoolSize(4)
	defer SetPoolSize(prevPool)
	obs.StartTrace()
	defer func() {
		obs.StopTrace(io.Discard)
		obs.EnableTracing(false)
	}()

	stop := make(chan struct{})
	var drains sync.WaitGroup
	drains.Add(1)
	go func() {
		defer drains.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := obs.StopTrace(&buf); err != nil {
				t.Errorf("StopTrace during retirement churn: %v", err)
				return
			}
			if !json.Valid(buf.Bytes()) {
				t.Error("drain emitted invalid JSON during retirement churn")
				return
			}
			obs.StartTrace()
		}
	}()

	const goroutines, iters = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%5 == 0 {
					SetPoolSize(1 + (i/5)%8) // evictions retire cached teams
				}
				func() {
					defer func() { recover() }()
					Region(2, func(w *Worker) {
						Spawn(func() {})
						w.Team.Barrier().Wait()
						if w.ID == 1 && (g+i)%7 == 0 {
							panic("retire under drain")
						}
					})
				}()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	drains.Wait()
}
