package core

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aomplib/internal/obs"
	"aomplib/internal/rt"
	"aomplib/internal/weaver"
)

// pinWidth weaves regions without a width record until the test ends, so
// every entry runs at its requested width — for tests that enter a small
// region repeatedly and mean to exercise that width.
func pinWidth(t testing.TB) {
	prev := fixedWidth
	fixedWidth = true
	t.Cleanup(func() { fixedWidth = prev })
}

// traceForkSizes runs fn under a fresh trace and counts its region slices
// by team size. It fails t if the rings dropped any event, which could
// hide a narrow entry.
func traceForkSizes(t testing.TB, fn func()) map[int]int {
	t.Helper()
	defer obs.EnableTracing(obs.EnableTracing(false))
	drops := obs.ReadStats().RingDrops
	obs.StartTrace()
	fn()
	var buf bytes.Buffer
	if err := obs.StopTrace(&buf); err != nil {
		t.Fatalf("StopTrace: %v", err)
	}
	if d := obs.ReadStats().RingDrops - drops; d != 0 {
		t.Fatalf("the trace dropped %d events", d)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Size int `json:"size"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	forks := map[int]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Name == "region" {
			forks[ev.Args.Size]++
		}
	}
	return forks
}

// widthProgram weaves a Threads(2) region over body and returns its entry
// and the width the master saw on the latest entry.
func widthProgram(body func()) (run func(), width func() int) {
	p := weaver.NewProgram("width")
	var seen atomic.Int32
	run = p.Class("W").Proc("run", func() {
		if rt.ThreadID() == 0 {
			seen.Store(int32(rt.NumThreads()))
		}
		body()
	})
	p.Use(ParallelRegion("call(* W.run(..))").Threads(2))
	p.MustWeave()
	return run, func() int { return int(seen.Load()) }
}

// spin busy-waits d of wall time.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestRegionWidthNarrowsTinyRegion: an empty woven region runs on one
// worker within a few entries (from the second, unless its first entries
// were long), and keeps doing so. Under -race both widths cost about the
// same, so the share of narrow entries is only bounded loosely; the probe
// schedule itself is pinned by rt's TestGrainReprobe.
func TestRegionWidthNarrowsTinyRegion(t *testing.T) {
	run, width := widthProgram(func() {})
	const entries = 300
	first, narrow := 0, 0
	for i := 1; i <= entries; i++ {
		run()
		switch width() {
		case 1:
			narrow++
			if first == 0 {
				first = i
			}
		case 2:
		default:
			t.Fatalf("entry %d ran %d workers, want 1 or 2", i, width())
		}
	}
	if first == 0 || first > 16 {
		t.Errorf("first narrowed entry %d, want one of the first 16", first)
	}
	if narrow < entries/4 {
		t.Errorf("%d of %d entries ran narrow, want at least %d", narrow, entries, entries/4)
	}
}

// TestRegionWidthReturnsWhenRegionGrows: once a narrowed region's body
// grows to 4 ms of splittable work (2 ms a worker), one narrow run lifts the
// width-1 time past the stale full-width one, so the team serves; three
// full-width runs lift that time past rt's 1 ms ceiling, after which the
// region never runs narrow again. Between them a due probe may still run
// narrow, so the bound is: at most three narrow entries, none in the last
// six of twelve.
func TestRegionWidthReturnsWhenRegionGrows(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps for the team to split the work")
	}
	var chunks atomic.Int64 // of 10 µs each
	chunks.Store(2)
	p := weaver.NewProgram("grow")
	cls := p.Class("G")
	loop := cls.ForProc("loop", func(lo, hi, step int) {
		if chunks.Load() > 2 {
			spin(time.Duration(hi-lo) * 10 * time.Microsecond)
		}
	})
	var seen atomic.Int32
	run := cls.Proc("run", func() {
		if rt.ThreadID() == 0 {
			seen.Store(int32(rt.NumThreads()))
		}
		loop(0, int(chunks.Load()), 1)
	})
	p.Use(ParallelRegion("call(* G.run(..))").Threads(2))
	p.Use(ForShare("call(* G.loop(..))"))
	p.MustWeave()
	for i := 0; seen.Load() != 1; i++ {
		if i == 50 {
			t.Fatal("the tiny region never ran narrow in 50 entries")
		}
		run()
	}
	chunks.Store(400)
	var widths []int
	for i := 0; i < 12; i++ {
		run()
		widths = append(widths, int(seen.Load()))
	}
	narrow := 0
	for i, w := range widths {
		if w == 1 {
			narrow++
			if i >= 6 {
				t.Fatalf("grown entry %d ran narrow (widths %v), want the full team in the last six", i, widths)
			}
		}
	}
	if narrow > 3 {
		t.Errorf("%d grown entries ran narrow (widths %v), want at most 3", narrow, widths)
	}
}

// TestRegionWidthLongRegionNeverNarrow: a region of 1 ms or more is never
// forked at width 1 to find out whether that would be faster.
func TestRegionWidthLongRegionNeverNarrow(t *testing.T) {
	run, _ := widthProgram(func() { time.Sleep(time.Millisecond) })
	forks := traceForkSizes(t, func() {
		for i := 0; i < 30; i++ {
			run()
		}
	})
	if forks[1] != 0 || forks[2] != 30 {
		t.Errorf("forks by width %v, want 30 at width 2 and none at width 1", forks)
	}
}

// TestRegionWidthConcurrentEntrants: goroutines entering one woven region
// at once share its record; every entry runs one body per worker of the
// width it reports, whichever width it got. Run under -race.
func TestRegionWidthConcurrentEntrants(t *testing.T) {
	const callers, entries = 4, 200
	var bodies, widths atomic.Int64
	p := weaver.NewProgram("concurrent")
	run := p.Class("C").Proc("run", func() {
		if rt.ThreadID() == 0 {
			widths.Add(int64(rt.NumThreads()))
		}
		bodies.Add(1)
	})
	p.Use(ParallelRegion("call(* C.run(..))").Threads(2))
	p.MustWeave()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < entries; i++ {
				run()
			}
		}()
	}
	wg.Wait()
	if b, w := bodies.Load(), widths.Load(); b != w || w < callers*entries || w > 2*callers*entries {
		t.Errorf("%d worker bodies, %d workers reported over %d entries", b, w, callers*entries)
	}
}
