// Ledger: the synchronisation constructs in both programming styles.
//
// The base program books n transactions sequentially: a for method adds
// each amount, scaled by a rate, to a balance read through an accessor,
// appends the transaction to a log and counts the flagged ones; a
// checksum of the log is read through a future. Parallelism is plugged in
// twice on the same program, first with annotations (paper Fig. 5), then
// with the equivalent pointcuts:
//
//   - @ThreadLocalField gives each worker its own balance; @Reduce merges
//     them at the end of the region;
//   - @Ordered keeps the log in iteration order;
//   - @Critical guards the flag counter;
//   - @Single sets the rate once, between barriers, as a @Writer; every
//     read of it is a @Reader;
//   - @FutureTask computes the checksum asynchronously.
//
// It exits 1 if a woven run's result differs from the sequential one.
//
// Run with:
//
//	go run ./examples/ledger
package main

import (
	"fmt"
	"os"
	"reflect"

	"aomplib"
)

const n = 4096

// ledger is the base program's state: nothing in it is parallel.
type ledger struct {
	Rate, Balance, Flagged, Checksum int
	Log                              []int
}

func main() {
	l := &ledger{}
	prog := aomplib.NewProgram("ledger")
	cls := prog.Class("Ledger")

	balance := cls.ValueProc("balance", func() any { return &l.Balance })
	rate := cls.ValueProc("rate", func() any { return l.Rate })
	setRate := cls.Proc("setRate", func() { l.Rate = 3 })
	record := cls.KeyedProc("record", func(i int) { l.Log = append(l.Log, i) })
	flag := cls.Proc("flag", func() { l.Flagged++ })
	book := cls.ForProc("book", func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			amount := i * 7919 % 1000
			*balance().(*int) += amount * rate().(int)
			record(i)
			if amount%7 == 0 {
				flag()
			}
		}
	})
	settle := cls.Proc("settle", func() {})
	run := cls.Proc("run", func() { setRate(); book(0, n, 1); settle() })
	checksum := cls.FutureProc("checksum", func() any {
		sum := 0
		for pos, i := range l.Log {
			sum += (pos + 1) * i
		}
		return sum
	})
	merge := func(local any) { l.Balance += *local.(*int) }
	fresh := func() any { return new(int) }

	compute := func() ledger {
		*l = ledger{}
		run()
		l.Checksum = checksum().Get().(int)
		return *l
	}
	want := compute() // sequential: nothing woven yet
	failed := false
	check := func(style string) {
		got := compute()
		same := reflect.DeepEqual(got, want)
		failed = failed || !same
		fmt.Printf("%-12s balance %d, %d flagged, checksum %d; equals the sequential run: %v\n",
			style, got.Balance, got.Flagged, got.Checksum, same)
	}

	prog.MustAnnotate("Ledger.run", aomplib.Parallel{Threads: 4})
	prog.MustAnnotate("Ledger.setRate", aomplib.BarrierBefore{}, aomplib.BarrierAfter{},
		aomplib.Single{}, aomplib.Writer{ID: "rate"})
	prog.MustAnnotate("Ledger.rate", aomplib.Reader{ID: "rate"})
	prog.MustAnnotate("Ledger.balance", aomplib.ThreadLocalField{ID: "balance", Fresh: fresh})
	prog.MustAnnotate("Ledger.book", aomplib.For{})
	prog.MustAnnotate("Ledger.record", aomplib.Ordered{})
	prog.MustAnnotate("Ledger.flag", aomplib.Critical{})
	prog.MustAnnotate("Ledger.settle", aomplib.Reduce{ID: "balance", Merge: merge})
	prog.MustAnnotate("Ledger.checksum", aomplib.FutureTask{})
	prog.Use(aomplib.AnnotationAspects(prog)...)
	prog.MustWeave()
	check("annotations")

	// Unplug every annotation aspect and plug in the same composition
	// through pointcuts.
	prog.Unweave()
	for _, name := range prog.Aspects() {
		prog.RemoveAspect(name)
	}
	tl := aomplib.NewThreadLocal("call(* Ledger.balance(..))", "balance").InitFresh(fresh)
	prog.Use(
		aomplib.ParallelRegion("call(* Ledger.run(..))").Threads(4),
		aomplib.BarrierAroundPoint("call(* Ledger.setRate(..))"),
		aomplib.SingleSection("call(* Ledger.setRate(..))"),
		aomplib.ReadersWriter().Reader("call(* Ledger.rate(..))").Writer("call(* Ledger.setRate(..))"),
		tl,
		aomplib.ForShare("call(* Ledger.book(..))"),
		aomplib.OrderedSection("call(* Ledger.record(..))"),
		aomplib.CriticalSection("call(* Ledger.flag(..))"),
		aomplib.ReducePoint("call(* Ledger.settle(..))", tl, merge),
		aomplib.FutureTaskSpawn("call(* Ledger.checksum(..))"),
	)
	prog.MustWeave()
	check("pointcuts")

	if failed {
		os.Exit(1)
	}
}
