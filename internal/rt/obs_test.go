package rt

import (
	"bytes"
	"encoding/json"
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
// timeline carries (joins, leases, inline tasks, dependence releases)
// come from the drained trace.
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
	// Out-of-region spawn: the inline-task path.
	done := make(chan struct{})
	Spawn(func() { close(done) })
	<-done

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
	for _, want := range []string{"region join", "team lease", "inline task", "dep release"} {
		if !names[want] {
			t.Errorf("trace has no %q event", want)
		}
	}
}

// The pool must attribute cold spawns with hot teams off to the Disabled
// counter, not Misses.
func TestPoolStatsDisabledCounter(t *testing.T) {
	prev := SetHotTeams(false)
	defer SetHotTeams(prev)
	before := ReadPoolStats()
	Region(2, func(w *Worker) {})
	st := ReadPoolStats()
	if st.Disabled != before.Disabled+1 {
		t.Fatalf("Disabled = %d, want %d", st.Disabled, before.Disabled+1)
	}
	if st.Misses != before.Misses {
		t.Fatalf("Misses advanced (%d -> %d) for a disabled-pool entry", before.Misses, st.Misses)
	}
}

// A custom tool (SetHooks) must receive events, and EnableTracing(false)
// must not evict it.
func TestCustomToolHooks(t *testing.T) {
	var forks, joins int
	prev := obs.SetHooks(&obs.Hooks{
		RegionFork: func(obs.WorkerID, uint64, int, int) { forks++ },
		RegionJoin: func(obs.WorkerID, uint64, int) { joins++ },
	})
	defer obs.SetHooks(prev)
	Region(2, func(w *Worker) {})
	if forks != 1 || joins != 1 {
		t.Fatalf("custom tool saw forks=%d joins=%d, want 1/1", forks, joins)
	}
	obs.EnableTracing(false)
	Region(2, func(w *Worker) {})
	if forks != 2 {
		t.Fatalf("EnableTracing(false) evicted the custom tool (forks=%d)", forks)
	}
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
// path is preallocated padded atomics and lossy pairing tables, nothing
// allocating.

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
