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
		Steal:        "steal",
		Custom:       "caseSpecific",
		Runtime:      "runtime",
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
	// The former names parse to the kinds that absorbed them, in any case.
	for name, want := range map[string]Kind{"auto": Adaptive, "AUTO": Adaptive, "weightedSteal": Steal, "weightedsteal": Steal} {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseKind("fancy"); err == nil {
		t.Fatal("unknown schedule name parsed")
	} else if !strings.Contains(err.Error(), "staticBlock") {
		t.Fatalf("parse error does not list valid names: %v", err)
	}
}

func TestSetDefaultGuardsAndSwaps(t *testing.T) {
	orig := Default()
	defer SetDefault(orig) //nolint:errcheck // restoring a previously valid kind
	if prev, err := SetDefault(Guided); err != nil || prev != orig {
		t.Fatalf("SetDefault(Guided) = %v, %v", prev, err)
	}
	if Default() != Guided {
		t.Fatalf("Default() = %v after SetDefault(Guided)", Default())
	}
	if _, err := SetDefault(Runtime); err == nil {
		t.Fatal("Runtime accepted as its own default")
	}
	if _, err := SetDefault(Custom); err == nil {
		t.Fatal("Custom accepted as process default")
	}
	if _, err := SetDefault(Kind(42)); err == nil {
		t.Fatal("unknown kind accepted as process default")
	}
	if Default() != Guided {
		t.Fatalf("rejected SetDefault mutated the default: %v", Default())
	}
}

func TestResolveRuntimeAndAuto(t *testing.T) {
	orig := Default()
	defer SetDefault(orig) //nolint:errcheck
	if _, err := SetDefault(StaticCyclic); err != nil {
		t.Fatal(err)
	}
	if got := Resolve(Runtime, 1000, 4); got != StaticCyclic {
		t.Fatalf("Runtime resolved to %v, want staticCyclic", got)
	}
	// Runtime -> Auto: the default may itself be Auto, which is Adaptive and
	// resolves as Adaptive does.
	if _, err := SetDefault(Auto); err != nil {
		t.Fatal(err)
	}
	if got := Resolve(Runtime, 1000, 4); got != Adaptive {
		t.Fatalf("Runtime->Auto resolved to %v, want adaptive left to the runtime", got)
	}
	if got := Resolve(Runtime, 1000, 1); got != StaticBlock {
		t.Fatalf("Runtime->Auto on one worker resolved to %v, want staticBlock", got)
	}
	// Concrete kinds pass through untouched.
	for _, k := range []Kind{StaticBlock, StaticCyclic, Dynamic, Guided, Steal, Custom} {
		if got := Resolve(k, 5, 2); got != k {
			t.Errorf("Resolve(%v) rewrote a concrete kind to %v", k, got)
		}
	}
}

// TestResolveAutoBoundaryTripCounts pins what Resolve still decides for
// Auto (Adaptive) from width and trip count alone: one worker or a
// degenerate team is static by blocks at any count, a team of two or more
// leaves every packable count to the runtime's encounter state — empty and
// single-iteration loops included; the first-sight shape rule lives there —
// and one iteration past the packable range goes guided.
func TestResolveAutoBoundaryTripCounts(t *testing.T) {
	cases := []struct {
		count, nthreads int
		want            Kind
	}{
		{count: 0, nthreads: 1, want: StaticBlock},
		{count: 1 << 20, nthreads: 1, want: StaticBlock},
		{count: 1 << 20, nthreads: 0, want: StaticBlock}, // degenerate team
		{count: stealMaxCount + 1, nthreads: 1, want: StaticBlock},
		{count: 0, nthreads: 8, want: Adaptive},
		{count: 1, nthreads: 8, want: Adaptive},
		{count: 8, nthreads: 8, want: Adaptive},
		{count: stealMaxCount, nthreads: 2, want: Adaptive},
		{count: stealMaxCount + 1, nthreads: 2, want: Guided},
	}
	for _, c := range cases {
		if got := Resolve(Auto, c.count, c.nthreads); got != c.want {
			t.Errorf("Resolve(Auto, %d, %d) = %v, want %v", c.count, c.nthreads, got, c.want)
		}
	}
}

// TestResolveTable runs every kind over widths {0, 1, 2} and trip counts up
// to one past the packable steal range. On at most one worker every
// dispensing kind (dynamic, guided, steal, adaptive — and runtime once it
// reads a dispensing default) is one static block at any count; Custom and
// StaticCyclic are never rewritten; on a team Steal and Adaptive fall back
// past the packable range.
func TestResolveTable(t *testing.T) {
	orig := Default()
	defer SetDefault(orig) //nolint:errcheck
	type row struct {
		name                     string
		kind, def                Kind // def: the process default Runtime reads
		solo, team, teamOverflow Kind // ≤ 1 worker; 2 workers within / past stealMaxCount
	}
	rows := []row{
		{"staticBlock", StaticBlock, StaticBlock, StaticBlock, StaticBlock, StaticBlock},
		{"staticCyclic", StaticCyclic, StaticBlock, StaticCyclic, StaticCyclic, StaticCyclic},
		{"dynamic", Dynamic, StaticBlock, StaticBlock, Dynamic, Dynamic},
		{"guided", Guided, StaticBlock, StaticBlock, Guided, Guided},
		{"steal", Steal, StaticBlock, StaticBlock, Steal, Dynamic},
		{"caseSpecific", Custom, StaticBlock, Custom, Custom, Custom},
		{"adaptive", Adaptive, StaticBlock, StaticBlock, Adaptive, Guided},
		{"runtime→steal", Runtime, Steal, StaticBlock, Steal, Dynamic},
		{"runtime→guided", Runtime, Guided, StaticBlock, Guided, Guided},
		{"runtime→staticCyclic", Runtime, StaticCyclic, StaticCyclic, StaticCyclic, StaticCyclic},
		{"runtime→adaptive", Runtime, Adaptive, StaticBlock, Adaptive, Guided},
	}
	counts := []int{0, 1, 2, 1024, stealMaxCount, stealMaxCount + 1}
	for _, r := range rows {
		if _, err := SetDefault(r.def); err != nil {
			t.Fatal(err)
		}
		for _, nthreads := range []int{0, 1, 2} {
			for _, count := range counts {
				want := r.solo
				if nthreads > 1 {
					want = r.team
					if count > stealMaxCount {
						want = r.teamOverflow
					}
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

// TestResolveStealOverflowFallsBack pins the packed-range guard: loops
// whose trip count cannot be packed into 32-bit bounds resolve to Dynamic
// (uniformly across a team — Resolve is pure), everything below passes
// through.
func TestResolveStealOverflowFallsBack(t *testing.T) {
	if got := Resolve(Steal, stealMaxCount, 4); got != Steal {
		t.Errorf("Resolve(Steal, max, 4) = %v, want Steal", got)
	}
	if got := Resolve(Steal, stealMaxCount+1, 4); got != Dynamic {
		t.Errorf("Resolve(Steal, max+1, 4) = %v, want Dynamic fallback", got)
	}
}
