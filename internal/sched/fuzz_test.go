package sched

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseKind feeds ParseKind arbitrary strings: garbage must come back
// as an error (never a panic, never a silent zero Kind masquerading as
// StaticBlock), an accepted input must be its kind's name or one of the
// kind's former names, case-insensitively, and every kind's name must
// parse back to the kind; "runtime", the name of the deleted process-default
// kind, is garbage like any other. Run as a short -fuzztime smoke in CI; the corpus
// seeds cover every canonical and former name plus near-miss mutations.
func FuzzParseKind(f *testing.F) {
	for _, k := range Kinds() {
		f.Add(k.String())
		f.Add(strings.ToUpper(k.String()))
		f.Add(k.String() + "x")
	}
	for _, fn := range formerNames {
		f.Add(fn.name)
		f.Add(strings.ToUpper(fn.name))
		f.Add(fn.name + "x")
	}
	f.Add("")
	f.Add("static")
	f.Add("dyn amic")
	f.Add("\x00guided")
	// Near-misses of the longer spellings: spacing, casing and truncation
	// mutations around weightedSteal and adaptive.
	f.Add("weighted steal")
	f.Add("weightedsteal")
	f.Add("WEIGHTEDSTEAL")
	f.Add("weighted")
	f.Add("adaptive ")
	f.Add("adapt")
	f.Add("adaptivesteal")
	// The deleted process-default kind's name, which must no longer parse.
	f.Add("runtime")
	f.Add("RUNTIME")
	f.Add("runtimex")
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKind(s)
		if err != nil {
			if !strings.Contains(err.Error(), "unknown schedule") {
				t.Fatalf("ParseKind(%q) error lost its shape: %v", s, err)
			}
			return
		}
		if strings.EqualFold(s, "runtime") {
			t.Fatalf("ParseKind(%q) = %v, want an error", s, k)
		}
		named := strings.EqualFold(s, k.String())
		for _, fn := range formerNames {
			named = named || (fn.kind == k && strings.EqualFold(s, fn.name))
		}
		if !named {
			t.Fatalf("ParseKind(%q) = %v, which neither it nor a former name of it matches", s, k)
		}
		if rk, rerr := ParseKind(k.String()); rerr != nil || rk != k {
			t.Fatalf("round-trip failed: ParseKind(%q) = %v, %v; want %v", k.String(), rk, rerr, k)
		}
	})
}

// FuzzDispenserClaims holds the claim rule (checkClaimShape) over arbitrary
// trip counts, chunks and widths: claims tile [0,n) in order, are whole
// chunks except the last, span four chunks only while more than 4·T chunks
// remain, and no chunk or trip count overflows the cursor backwards. The
// claim count is bounded so a hostile (n, chunk) cannot run the target for
// minutes.
func FuzzDispenserClaims(f *testing.F) {
	f.Add(1024, 16, 2, false)
	f.Add(1024, 16, 1, false)
	f.Add(37, 3, 7, false)
	f.Add(1000, 1, 4, true)
	f.Add(100, math.MaxInt, 2, false)
	f.Add(math.MaxInt, math.MaxInt, 2, false)
	f.Add(math.MaxInt, math.MaxInt/4+1, 3, true)
	f.Add(math.MaxInt, 1<<60, 1, false)
	f.Add(0, 0, 0, false)
	f.Fuzz(func(t *testing.T, n, chunk, nthreads int, guided bool) {
		if n < 0 || nthreads > 1<<16 {
			t.Skip()
		}
		if c := max(chunk, 1); n/c > 1<<16 {
			t.Skip() // more than 64k claims: nothing new, only slower
		}
		checkClaimShape(t, n, chunk, nthreads, guided)
	})
}
