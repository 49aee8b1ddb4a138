package parallel

import "testing"

// The loopKey rule: Adaptive state is keyed by the body's call site. Two
// closures built at one source location are the same loop, two call sites
// are two loops, and a key rebuilt on a later call finds the state an
// earlier call registered.

// bodiesFromOneSite returns n distinct closures, each capturing its own
// index, all created at the same source location. It must not be inlined:
// each inlined copy of a function compiles its closures anew, so every
// caller it was inlined into would be a call site of its own.
//
//go:noinline
func bodiesFromOneSite(n int) []func(int) {
	var fns []func(int)
	for k := 0; k < n; k++ {
		fns = append(fns, func(i int) { _ = i + k })
	}
	return fns
}

func TestStableKeySameSiteEqual(t *testing.T) {
	fns := bodiesFromOneSite(3)
	for i := 1; i < len(fns); i++ {
		if stableKey(fns[i]) != stableKey(fns[0]) {
			t.Fatalf("closures %d and 0 from one call site have different keys", i)
		}
	}
}

func TestStableKeyDistinctSites(t *testing.T) {
	a := func(i int) { _ = i + 1 }
	b := func(i int) { _ = i + 2 }
	rng := func(lo, hi int) { _ = hi - lo }
	if stableKey(a) == stableKey(b) {
		t.Fatal("two call sites share a key")
	}
	if stableKey(a) == stableKey(bodiesFromOneSite(1)[0]) || stableKey(a) == stableKey(rng) {
		t.Fatal("bodies from different call sites share a key")
	}
}

func TestStableKeyFreshKeyFindsLearnedState(t *testing.T) {
	learned := map[any]int{}
	learned[stableKey(bodiesFromOneSite(1)[0])] = 42
	// A later call builds a new closure and a new key for the same loop.
	if got, ok := learned[stableKey(bodiesFromOneSite(1)[0])]; !ok || got != 42 {
		t.Fatalf("fresh key found %d, %v; want the state stored under the earlier key", got, ok)
	}
	if _, ok := learned[stableKey(func(int) {})]; ok {
		t.Fatal("another call site found the loop's state")
	}
}
