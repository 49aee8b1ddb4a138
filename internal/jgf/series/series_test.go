package series

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
	seq, mt, ao := runAll(t, SizeTest, 3)
	for j := 0; j < 2; j++ {
		for i := range seq.s.TestArray[j] {
			if seq.s.TestArray[j][i] != mt.s.TestArray[j][i] {
				t.Fatalf("MT coefficient [%d][%d] differs", j, i)
			}
			if seq.s.TestArray[j][i] != ao.s.TestArray[j][i] {
				t.Fatalf("Aomp coefficient [%d][%d] differs", j, i)
			}
		}
	}
}

func TestKnownFirstCoefficient(t *testing.T) {
	seq := NewSeq(Params{N: 4}).(*seqInstance)
	seq.Setup()
	seq.Kernel()
	if err := seq.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleThreadAomp(t *testing.T) {
	runAll(t, Params{N: 50}, 1)
}

func TestMoreThreadsThanWork(t *testing.T) {
	// 3 coefficients over 8 threads: coverage must still be exact.
	seq, _, ao := runAll(t, Params{N: 3}, 8)
	for i := range seq.s.TestArray[0] {
		if seq.s.TestArray[0][i] != ao.s.TestArray[0][i] {
			t.Fatalf("coefficient %d differs with oversubscribed team", i)
		}
	}
}

func TestHarnessMeasure(t *testing.T) {
	m := harness.Rounds([]harness.Variant{{Version: harness.Aomp, Threads: 2, Inst: NewAomp(SizeTest, 2)}}, 2)[0]
	if m.Err != nil {
		t.Fatalf("measurement invalid: %v", m.Err)
	}
	if len(m.Seconds) != 2 || m.Seconds[0] <= 0 || m.Seconds[1] <= 0 {
		t.Fatalf("round times %v, want two positive", m.Seconds)
	}
}
