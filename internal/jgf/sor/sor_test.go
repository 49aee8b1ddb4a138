package sor

import (
	"testing"

	"aomplib/internal/jgf/harness"
)

func runAll(t *testing.T, p Params, threads int) (*seqInstance, *mtInstance, *aompInstance) {
	t.Helper()
	seq := NewSeq(p).(*seqInstance)
	mt := NewMT(p, threads).(*mtInstance)
	ao := NewAomp(p, threads).(*aompInstance)
	for _, in := range []harness.Instance{seq, mt, ao} {
		in.Setup()
		in.Kernel()
		if err := in.Validate(); err != nil {
			t.Fatalf("validation: %v", err)
		}
	}
	return seq, mt, ao
}

func TestAllVersionsAgreeBitwise(t *testing.T) {
	// Red-black ordering makes parallel sweeps deterministic: every
	// version must produce the identical grid.
	seq, mt, ao := runAll(t, SizeTest, 3)
	for i := range seq.s.g {
		for j := range seq.s.g[i] {
			if seq.s.g[i][j] != mt.s.g[i][j] {
				t.Fatalf("MT grid differs at (%d,%d)", i, j)
			}
			if seq.s.g[i][j] != ao.s.g[i][j] {
				t.Fatalf("Aomp grid differs at (%d,%d)", i, j)
			}
		}
	}
	if seq.s.gTotal != mt.s.gTotal || seq.s.gTotal != ao.s.gTotal {
		t.Fatalf("checksums differ: %v %v %v", seq.s.gTotal, mt.s.gTotal, ao.s.gTotal)
	}
}

func TestConvergesTowardSmooth(t *testing.T) {
	// SOR smooths the random grid: the max-abs value must not grow.
	p := Params{M: 32, N: 32, Iters: 50}
	before := New(p)
	maxBefore := 0.0
	for i := range before.g {
		for _, v := range before.g[i] {
			if v > maxBefore {
				maxBefore = v
			}
		}
	}
	seq := NewSeq(p).(*seqInstance)
	seq.Setup()
	seq.Kernel()
	maxAfter := 0.0
	for i := 1; i < p.M-1; i++ {
		for j := 1; j < p.N-1; j++ {
			if v := seq.s.g[i][j]; v > maxAfter {
				maxAfter = v
			}
		}
	}
	if maxAfter > maxBefore*2 {
		t.Fatalf("relaxation diverged: %g -> %g", maxBefore, maxAfter)
	}
}

func TestBoundaryRowsUntouched(t *testing.T) {
	p := SizeTest
	ref := New(p)
	seq := NewSeq(p).(*seqInstance)
	seq.Setup()
	seq.Kernel()
	for j := range ref.g[0] {
		if seq.s.g[0][j] != ref.g[0][j] || seq.s.g[p.M-1][j] != ref.g[p.M-1][j] {
			t.Fatal("boundary row modified")
		}
	}
}

func TestSingleThreadAndOddRows(t *testing.T) {
	runAll(t, Params{M: 33, N: 17, Iters: 5}, 1)
	runAll(t, Params{M: 33, N: 17, Iters: 5}, 4)
}

func TestDataflowVersionAgreesBitwise(t *testing.T) {
	// Within a colour phase all point updates are independent and each
	// point's update reads the same neighbour values regardless of block
	// interleaving (the dependence clauses keep neighbour blocks at most
	// one phase apart), so the dataflow grid matches sequential bit for
	// bit.
	for _, threads := range []int{1, 2, 4} {
		seq := NewSeq(SizeTest).(*seqInstance)
		seq.Setup()
		seq.Kernel()
		df := NewAompDep(SizeTest, threads).(*aompDepInstance)
		df.Setup()
		df.Kernel()
		if err := df.Validate(); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if df.s.gTotal != seq.s.gTotal {
			t.Fatalf("threads=%d: checksum %v differs from sequential %v", threads, df.s.gTotal, seq.s.gTotal)
		}
		for i := range seq.s.g {
			for j := range seq.s.g[i] {
				if seq.s.g[i][j] != df.s.g[i][j] {
					t.Fatalf("threads=%d: grid differs at (%d,%d)", threads, i, j)
				}
			}
		}
	}
}
