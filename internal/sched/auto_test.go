package sched

import (
	"strings"
	"testing"
)

func TestKindStringCoversAllKinds(t *testing.T) {
	want := map[Kind]string{
		StaticBlock:  "staticBlock",
		StaticCyclic: "staticCyclic",
		Dynamic:      "dynamic",
		Guided:       "guided",
		Custom:       "caseSpecific",
		Adaptive:     "adaptive",
	}
	if len(Kinds()) != len(want) {
		t.Fatalf("Kinds() lists %d schedules, want %d", len(Kinds()), len(want))
	}
	for _, k := range Kinds() {
		if k.String() != want[k] {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want[k])
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestParseKindRoundTrips(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
		// Case-insensitive, as flag values are typed by hand.
		upper, err := ParseKind(strings.ToUpper(k.String()))
		if err != nil || upper != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", strings.ToUpper(k.String()), upper, err, k)
		}
	}
	for _, name := range append([]string{"fancy"}, retiredNames...) {
		if _, err := ParseKind(name); err == nil {
			t.Fatalf("schedule name %q parsed", name)
		}
	}
	if _, err := ParseKind("fancy"); err == nil {
		t.Fatal("unknown schedule name parsed")
	} else if !strings.Contains(err.Error(), "staticBlock") {
		t.Fatalf("parse error does not list valid names: %v", err)
	}
}

// TestResolveRuntimeAndAuto pins what Resolve leaves of the indirect kind:
// Auto (Adaptive) is left to the runtime on a team and static by blocks on
// one worker, and concrete kinds pass through.
func TestResolveRuntimeAndAuto(t *testing.T) {
	if got := Resolve(Auto, 1000, 4); got != Adaptive {
		t.Fatalf("Auto resolved to %v, want adaptive left to the runtime", got)
	}
	if got := Resolve(Auto, 1000, 1); got != StaticBlock {
		t.Fatalf("Auto on one worker resolved to %v, want staticBlock", got)
	}
	// Concrete kinds pass through untouched.
	for _, k := range []Kind{StaticBlock, StaticCyclic, Dynamic, Guided, Custom} {
		if got := Resolve(k, 5, 2); got != k {
			t.Errorf("Resolve(%v) rewrote a concrete kind to %v", k, got)
		}
	}
}

// TestResolveAutoBoundaryTripCounts pins what Resolve still decides for
// Auto (Adaptive) from width alone: one worker or a degenerate team is
// static by blocks at any count, and a team of two or more leaves every
// count to the runtime's encounter state — empty and single-iteration
// loops included (the first-sight shape rule lives there), and counts past
// 32 bits too.
func TestResolveAutoBoundaryTripCounts(t *testing.T) {
	const huge = 1 << 40
	cases := []struct {
		count, nthreads int
		want            Kind
	}{
		{count: 0, nthreads: 1, want: StaticBlock},
		{count: 1 << 20, nthreads: 1, want: StaticBlock},
		{count: 1 << 20, nthreads: 0, want: StaticBlock}, // degenerate team
		{count: huge, nthreads: 1, want: StaticBlock},
		{count: 0, nthreads: 8, want: Adaptive},
		{count: 1, nthreads: 8, want: Adaptive},
		{count: 8, nthreads: 8, want: Adaptive},
		{count: huge, nthreads: 2, want: Adaptive},
	}
	for _, c := range cases {
		if got := Resolve(Auto, c.count, c.nthreads); got != c.want {
			t.Errorf("Resolve(Auto, %d, %d) = %v, want %v", c.count, c.nthreads, got, c.want)
		}
	}
}

// TestResolveTable runs every kind over widths {0, 1, 2} and trip counts
// from 0 past 32 bits. On at most one worker every dispensing kind
// (dynamic, guided, adaptive) is one static block at any count; Custom and
// StaticCyclic are never rewritten; on a team no kind is rewritten, at any
// count.
func TestResolveTable(t *testing.T) {
	type row struct {
		name       string
		kind       Kind
		solo, team Kind // ≤ 1 worker; 2 workers
	}
	rows := []row{
		{"staticBlock", StaticBlock, StaticBlock, StaticBlock},
		{"staticCyclic", StaticCyclic, StaticCyclic, StaticCyclic},
		{"dynamic", Dynamic, StaticBlock, Dynamic},
		{"guided", Guided, StaticBlock, Guided},
		{"caseSpecific", Custom, Custom, Custom},
		{"adaptive", Adaptive, StaticBlock, Adaptive},
	}
	counts := []int{0, 1, 2, 1024, 1<<31 - 1, 1 << 31, 1 << 40}
	for _, r := range rows {
		for _, nthreads := range []int{0, 1, 2} {
			for _, count := range counts {
				want := r.solo
				if nthreads > 1 {
					want = r.team
				}
				if got := Resolve(r.kind, count, nthreads); got != want {
					t.Errorf("%s: Resolve(count %d, %d workers) = %v, want %v", r.name, count, nthreads, got, want)
				}
			}
		}
	}
}

// TestAutoGrain pins the generic-range grain heuristic: a pure function
// of the trip count (width-independence is what keeps Reduce
// decomposition deterministic), never below the dispatch-amortizing
// minimum, never cutting more than the piece bound.
func TestAutoGrain(t *testing.T) {
	if got := AutoGrain(0); got != 1 {
		t.Errorf("AutoGrain(0) = %d, want 1", got)
	}
	if got := AutoGrain(-5); got != 1 {
		t.Errorf("AutoGrain(-5) = %d, want 1", got)
	}
	for _, n := range []int{1, 10, 100, 1000, 1 << 16, 1 << 24} {
		g := AutoGrain(n)
		if g < autoGrainMin && g < n {
			t.Errorf("AutoGrain(%d) = %d, below minimum %d", n, g, autoGrainMin)
		}
		pieces := (n + g - 1) / g
		if pieces > autoGrainPieces {
			t.Errorf("AutoGrain(%d) = %d cuts %d pieces, bound %d", n, g, pieces, autoGrainPieces)
		}
	}
	// Large inputs scale the grain so the piece count stays put.
	if AutoGrain(1<<24) <= AutoGrain(1<<16) {
		t.Error("AutoGrain does not grow with the input")
	}
}
