package rt

import (
	"testing"
	"time"
)

// TestGrainArm pins the width rule: first sight, long regions and regions
// a team visibly speeds up run at the requested width; a short region
// tries width 1 once, then the faster arm serves and a due probe runs the
// other.
func TestGrainArm(t *testing.T) {
	const us = int64(time.Microsecond)
	for _, c := range []struct {
		name            string
		full, one, hand int64
		due             bool
		narrow, probe   bool
	}{
		{"first sight", 0, 0, 0, true, false, false},
		{"long region", grainCeil, 0, grainCeil, true, false, false},
		{"long region, narrow once faster", 50_000 * us, 4 * us, 40_000 * us, true, false, false},
		{"hand-off no visible share", 90 * us, 0, 10 * us, true, false, false},
		{"short region, width 1 untried", 9 * us, 0, 3 * us, false, true, true},
		{"width 1 faster", 9 * us, 4 * us, 3 * us, false, true, false},
		{"width 1 faster, probe due", 9 * us, 4 * us, 3 * us, true, false, true},
		{"full width faster", 9 * us, 12 * us, 3 * us, false, false, false},
		{"full width faster, probe due", 9 * us, 12 * us, 3 * us, true, true, true},
	} {
		narrow, probe := grainArm(c.full, c.one, c.hand, c.due)
		if narrow != c.narrow || probe != c.probe {
			t.Errorf("%s: grainArm(%d, %d, %d, %v) = %v, %v; want %v, %v",
				c.name, c.full, c.one, c.hand, c.due, narrow, probe, c.narrow, c.probe)
		}
	}
}

// TestGrainFold pins the EWMA: the first sample is taken whole, later ones
// a quarter step at a time, and a trained arm never reads untrained.
func TestGrainFold(t *testing.T) {
	for _, c := range []struct{ old, ns, want int64 }{
		{0, 800, 800},
		{800, 400, 700},
		{800, 1600, 1000},
		{0, 0, 1},
		{3, 1, 3},
	} {
		if got := grainFold(c.old, c.ns); got != c.want {
			t.Errorf("grainFold(%d, %d) = %d, want %d", c.old, c.ns, got, c.want)
		}
	}
}

// TestGrainReprobe pins the probe schedule: a lost probe doubles the
// interval up to 1024 entries, a won probe resets it.
func TestGrainReprobe(t *testing.T) {
	k, shift := uint64(2), uint32(0)
	for i := 1; i <= 12; i++ {
		at, next := grainReprobe(k, shift, false)
		want := uint32(min(i, grainMaxShift))
		if next != want || at != k+1<<want {
			t.Fatalf("lost probe %d at entry %d: next at %d (shift %d), want %d (shift %d)", i, k, at, next, k+1<<want, want)
		}
		k, shift = at, next
	}
	if at, next := grainReprobe(k, shift, true); at != k+1 || next != 0 {
		t.Errorf("won probe at entry %d: next at %d (shift %d), want %d (shift 0)", k, at, next, k+1)
	}
}

// TestGrainOutlierKeepsWidth: one disturbed width-1 sample lifts the
// narrow arm's EWMA above full width's, but it does not hand the region
// back to its team for a backed-off interval: the flip restarts the probe
// schedule, the demoted width 1 is re-measured next entry, and full width
// runs only on its own (again backed-off) probes.
func TestGrainOutlierKeepsWidth(t *testing.T) {
	const us = int64(time.Microsecond)
	g := new(Grain)
	g.full.Store(10 * us)
	g.one.Store(2 * us)
	g.hand.Store(5 * us)
	g.seen.Store(5000)
	g.probeAt.Store(5000 + 1<<grainMaxShift)
	g.shift.Store(grainMaxShift)
	if e := g.pick(2); !e.narrow || e.probe {
		t.Fatalf("trained record: entry narrow=%v probe=%v, want a narrow non-probe", e.narrow, e.probe)
	} else {
		g.done(e, 1000*us, 0)
	}
	full := 0
	for i := 0; i < 1<<grainMaxShift; i++ {
		e := g.pick(2)
		if i == 0 && !e.narrow {
			t.Fatalf("the entry after the outlier ran full width")
		}
		ns := 2 * us
		if !e.narrow {
			full++
			ns = 10 * us
		}
		g.done(e, ns, 5*us)
	}
	if full > grainMaxShift+2 {
		t.Errorf("%d of the %d entries after one outlier ran full width, want at most %d", full, 1<<grainMaxShift, grainMaxShift+2)
	}
}

// grainWidths enters g's region n times with an empty body asking for two
// workers and returns the width of every entry.
func grainWidths(g *Grain, n int) []int {
	widths := make([]int, n)
	for i := range widths {
		g.RegionArg(2, func(w *Worker, arg any) {
			if w.ID == 0 {
				widths[i] = w.Team.Size
			}
		}, nil)
	}
	return widths
}

// TestGrainRegionNarrows: an empty region learns to run on one worker
// (loosely bounded: under -race both widths cost about the same); bare
// entries keep their width.
func TestGrainRegionNarrows(t *testing.T) {
	const n = 300
	narrow := 0
	for _, w := range grainWidths(new(Grain), n) {
		if w == 1 {
			narrow++
		}
	}
	if narrow < n/4 {
		t.Errorf("%d of %d empty-region entries ran on one worker, want at least %d", narrow, n, n/4)
	}
	for i, w := range grainWidths(nil, 20) {
		if w != 2 {
			t.Fatalf("entry %d without a record ran %d workers, want 2", i, w)
		}
	}
}

// TestGrainNarrowIsNotDegraded: a narrowed entry is admitted and holds its
// slot like a full one; no refusal counter moves.
func TestGrainNarrowIsNotDegraded(t *testing.T) {
	admissionTestSetup(t, 1, AdmitReject, 0)
	tk := EnterTenant("grain")
	defer tk.Exit()
	g := new(Grain)
	narrow, heldNarrow := 0, 0
	for i := 0; i < 50; i++ {
		g.RegionArg(2, func(w *Worker, arg any) {
			if w.ID == 0 && w.Team.Size == 1 {
				narrow++
				if ReadAdmissionStats().Held == 1 {
					heldNarrow++
				}
			}
		}, nil)
	}
	if narrow == 0 || heldNarrow != narrow {
		t.Errorf("%d narrowed entries, %d of them holding the slot", narrow, heldNarrow)
	}
	if tk.Admitted() != 50 || tk.Rejected()+tk.TimedOut() != 0 {
		t.Errorf("token: admitted %d, rejected %d, timed out %d; want 50, 0, 0",
			tk.Admitted(), tk.Rejected(), tk.TimedOut())
	}
}

// BenchmarkRegionEntryWarmGrain is the warm entry of an empty region that
// carries a width record: it learns to run on the record's own team of
// one, and stays allocation-free doing so (a CI gate).
func BenchmarkRegionEntryWarmGrain(b *testing.B) {
	prev := SetHotTeams(true)
	defer SetHotTeams(prev)
	g := new(Grain)
	body := func(w *Worker, arg any) {}
	for i := 0; i < 16; i++ {
		g.RegionArg(2, body, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RegionArg(2, body, nil)
	}
}
