package harness

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// logInstance appends each lifecycle call to a log shared by a round's
// variants, and fails Validate in the rounds listed in failIn.
type logInstance struct {
	name   string
	log    *[]string
	calls  int
	failIn map[int]bool
}

func (f *logInstance) Setup() { *f.log = append(*f.log, "setup "+f.name) }
func (f *logInstance) Kernel() {
	*f.log = append(*f.log, "kernel "+f.name)
	time.Sleep(10 * time.Microsecond)
}
func (f *logInstance) Validate() error {
	*f.log = append(*f.log, "validate "+f.name)
	f.calls++
	if f.failIn[f.calls-1] {
		return fmt.Errorf("%s: bad result in round %d", f.name, f.calls-1)
	}
	return nil
}

func variants(log *[]string, names ...string) ([]Variant, []*logInstance) {
	var vs []Variant
	var ins []*logInstance
	for i, n := range names {
		in := &logInstance{name: n, log: log}
		ins = append(ins, in)
		vs = append(vs, Variant{Version: Version(n), Threads: i + 1, Inst: in})
	}
	return vs, ins
}

// TestRoundsLifecycle: every timed Kernel has its own Setup just before
// it and Validate just after it, round r starts at variant r mod n, and
// every round's Kernel is timed.
func TestRoundsLifecycle(t *testing.T) {
	var log []string
	vs, _ := variants(&log, "A", "B", "C")
	ms := Rounds(vs, 4)
	var want []string
	for _, order := range []string{"ABC", "BCA", "CAB", "ABC"} {
		for _, n := range order {
			want = append(want, "setup "+string(n), "kernel "+string(n), "validate "+string(n))
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("calls:\n%q\nwant:\n%q", log, want)
	}
	for i, m := range ms {
		if m.Version != vs[i].Version || m.Threads != vs[i].Threads || len(m.Seconds) != 4 || m.Err != nil {
			t.Fatalf("measurement %d = %+v, want %s/%d with 4 rounds and no error", i, m, vs[i].Version, vs[i].Threads)
		}
		for r, s := range m.Seconds {
			if s <= 0 {
				t.Fatalf("%s round %d: %v seconds", m.Version, r, s)
			}
		}
	}
}

// TestRoundsFailingValidate: one failed round marks that variant invalid
// and no other, and the rounds after it still run and are timed.
func TestRoundsFailingValidate(t *testing.T) {
	var log []string
	vs, ins := variants(&log, "A", "B")
	ins[1].failIn = map[int]bool{1: true}
	ms := Rounds(vs, 3)
	if ms[0].Err != nil {
		t.Fatalf("A: %v, want valid", ms[0].Err)
	}
	if ms[1].Err == nil || ms[1].Err.Error() != "B: bad result in round 1" {
		t.Fatalf("B: %v, want its round-1 failure", ms[1].Err)
	}
	if ins[1].calls != 3 || len(ms[1].Seconds) != 3 || ms[1].Seconds[2] <= 0 {
		t.Fatalf("B validated %d times over %v, want 3 timed rounds", ins[1].calls, ms[1].Seconds)
	}
}

// TestQuotients checks the median and quartiles against hand-computed
// values: odd counts take order statistics, even ones interpolate.
func TestQuotients(t *testing.T) {
	cases := []struct {
		a, b []float64
		want Quotient
	}{
		// quotients 3 1 4 1 5 → 1 1 3 4 5
		{[]float64{6, 1, 8, 3, 5}, []float64{2, 1, 2, 3, 1}, Quotient{Median: 3, P25: 1, P75: 4}},
		// quotients 4 1 3 2 → 1 2 3 4
		{[]float64{8, 1, 6, 4}, []float64{2, 1, 2, 2}, Quotient{Median: 2.5, P25: 1.75, P75: 3.25}},
		{[]float64{3}, []float64{2}, Quotient{Median: 1.5, P25: 1.5, P75: 1.5}},
		// pairs past the shorter slice are ignored
		{[]float64{2, 6, 100}, []float64{1, 2}, Quotient{Median: 2.5, P25: 2.25, P75: 2.75}},
		{nil, nil, Quotient{}},
	}
	for _, c := range cases {
		if got := Quotients(c.a, c.b); got != c.want {
			t.Errorf("Quotients(%v, %v) = %+v, want %+v", c.a, c.b, got, c.want)
		}
	}
	if got := (Quotient{Median: 1.0049, P25: 0.99, P75: 1.02}).Text(3); got != "1.005 (0.990–1.020)" {
		t.Errorf("Text(3) = %q", got)
	}
}
