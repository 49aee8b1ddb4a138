// Command schedtune is the offline half of the feedback loop behind the
// adaptive schedule: it replays a Chrome trace recorded by jgfbench -trace
// (or any aomplib.StartTrace/StopTrace session) and prints a per-loop
// schedule recommendation table from the measured per-worker share times —
// the same imbalance policy the runtime applies online (internal/rt,
// adaptResolve), applied after the fact to a whole run.
//
// Use it when a program cannot run Adaptive in production (e.g. the
// schedule is pinned in source) but a representative trace exists: the
// table says which for constructs wasted their team at the implicit
// barrier and what to declare instead.
//
//	go run ./cmd/jgfbench -size=A -threads=4 -only=sor -trace=sor.trace.json
//	go run ./cmd/schedtune sor.trace.json
//
// Work slices in the trace are named "for (<kind>)" and carry no further
// loop identity, so constructs that declared the same schedule aggregate
// into one row; the tool is an advisor over schedule groups, not a
// per-source-line profiler.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// traceEvent is the slice of the Chrome trace-event schema schedtune
// consumes: duration events ("ph": "X") with a worker track and, for work
// slices, the schedule-kind-bearing name.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Tid  int     `json:"tid"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// encounter is one reconstructed work-sharing encounter: the
// "for (<kind>)" slices the team's workers ran between the same barriers.
type encounter struct {
	durs []float64 // one per participating worker, microseconds
}

// imbalance returns max/mean of the per-worker share times, the ratio the
// runtime's adaptive policy thresholds on; 0 when undefined.
func (e *encounter) imbalance() float64 {
	if len(e.durs) == 0 {
		return 0
	}
	var sum, max float64
	for _, d := range e.durs {
		sum += d
		if d > max {
			max = d
		}
	}
	mean := sum / float64(len(e.durs))
	if mean <= 0 {
		return 0
	}
	return max / mean
}

// loopReport aggregates every encounter of one schedule group.
type loopReport struct {
	Kind       string  // schedule name out of the slice name
	Encounters int     // reconstructed encounters
	Workers    int     // widest team observed
	MeanImb    float64 // mean over encounters of max/mean share time
	WorstImb   float64
	TotalUs    float64 // total worker-time spent in this group's slices
	Advice     string
}

// The same thresholds the runtime adapts on (internal/rt adaptImbHigh /
// adaptImbLow), flag-overridable so a trace can be re-judged more or less
// aggressively without re-running the program.
var (
	imbHigh = flag.Float64("imb-high", 1.25,
		"imbalance ratio above which a loop should rebalance harder")
	imbLow = flag.Float64("imb-low", 1.08,
		"imbalance ratio below which a loop may use cheaper dispatch")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: schedtune [flags] <trace.json>\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// NaN parses but fails every comparison in advise, and a band with
	// low >= high is empty: either way the advice silently switches off.
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(*imbHigh) || !finite(*imbLow) || *imbLow >= *imbHigh {
		fmt.Fprintf(os.Stderr, "schedtune: need finite thresholds with -imb-low < -imb-high (got %v, %v)\n", *imbLow, *imbHigh)
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedtune: %v\n", err)
		os.Exit(1)
	}
	reports, err := analyze(f, *imbHigh, *imbLow)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedtune: %s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}
	if len(reports) == 0 {
		fmt.Fprintf(os.Stderr, "schedtune: %s holds no work-sharing slices — was the run traced with -trace?\n", flag.Arg(0))
		os.Exit(1)
	}
	render(os.Stdout, reports)
}

// analyze parses a Chrome trace and reduces its work slices to one report
// per schedule group, with the advice the imbalance thresholds imply.
func analyze(r io.Reader, high, low float64) ([]loopReport, error) {
	var tf traceFile
	if err := json.NewDecoder(r).Decode(&tf); err != nil {
		return nil, fmt.Errorf("parsing trace: %w", err)
	}
	groups := map[string][]traceEvent{}
	for _, ev := range tf.TraceEvents {
		if ev.Cat != "work" || ev.Ph != "X" {
			continue
		}
		kind, ok := kindOf(ev.Name)
		if !ok {
			continue
		}
		groups[kind] = append(groups[kind], ev)
	}
	var out []loopReport
	for kind, evs := range groups {
		rep := reduce(kind, evs)
		rep.Advice = advise(kind, rep.MeanImb, high, low)
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalUs > out[j].TotalUs })
	return out, nil
}

// kindOf extracts the schedule name from a work slice name "for (<kind>)".
func kindOf(name string) (string, bool) {
	rest, ok := strings.CutPrefix(name, "for (")
	if !ok {
		return "", false
	}
	kind, ok := strings.CutSuffix(rest, ")")
	return kind, ok && kind != ""
}

// reduce aligns one group's slices into encounters. Wall-time overlap is
// not usable for the alignment — on a time-shared CPU one encounter's
// per-worker slices serialize and need not overlap at all — but the
// work-sharing contract is: every worker of the team executes every
// encounter of a construct exactly once, in program order. So each
// worker's k-th slice of the group belongs to encounter k. (Ring-buffer
// overflow that dropped slices can shift a worker's sequence; the tool is
// an advisor over aggregates, where a rare shift washes out.)
func reduce(kind string, evs []traceEvent) loopReport {
	byTid := map[int][]traceEvent{}
	for _, ev := range evs {
		byTid[ev.Tid] = append(byTid[ev.Tid], ev)
	}
	count := 0
	for _, s := range byTid {
		sort.Slice(s, func(i, j int) bool { return s[i].Ts < s[j].Ts })
		if len(s) > count {
			count = len(s)
		}
	}
	encs := make([]encounter, count)
	for _, s := range byTid {
		for i, ev := range s {
			encs[i].durs = append(encs[i].durs, ev.Dur)
		}
	}
	rep := loopReport{Kind: kind, Encounters: len(encs)}
	var imbSum float64
	measured := 0
	for i := range encs {
		e := &encs[i]
		if len(e.durs) > rep.Workers {
			rep.Workers = len(e.durs)
		}
		for _, d := range e.durs {
			rep.TotalUs += d
		}
		// Single-worker encounters (width-1 teams, or slices lost to ring
		// overflow) measure no imbalance; skip them rather than report a
		// meaningless perfect 1.0.
		if len(e.durs) < 2 {
			continue
		}
		if imb := e.imbalance(); imb > 0 {
			imbSum += imb
			measured++
			if imb > rep.WorstImb {
				rep.WorstImb = imb
			}
		}
	}
	if measured > 0 {
		rep.MeanImb = imbSum / float64(measured)
	}
	return rep
}

// advise maps a schedule group's measured imbalance onto the runtime's
// adaptation policy: skewed loops move to the weighted steal schedule
// (or refine their chunk if already on a balancing schedule), balanced
// loops may coarsen, and the hysteresis band keeps what works. A group
// with no measurable imbalance gets no advice rather than a guess.
func advise(kind string, imb, high, low float64) string {
	switch {
	case imb == 0:
		return "no multi-worker encounters measured"
	case imb > high:
		switch kind {
		case "weightedSteal", "dynamic":
			return "imbalanced: halve the chunk size"
		case "steal":
			return "imbalanced: schedule=weightedSteal (speed-weighted ranges)"
		default:
			return "imbalanced: schedule=weightedSteal, or schedule=adaptive to self-tune"
		}
	case imb < low:
		switch kind {
		case "staticBlock", "staticCyclic":
			return "balanced: keep"
		default:
			return "balanced: coarsen chunk, or staticBlock for zero dispatch cost"
		}
	default:
		return "within hysteresis band: keep"
	}
}

func render(w io.Writer, reports []loopReport) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "schedule\tencounters\tworkers\ttotal(ms)\tmean imb\tworst imb\tadvice")
	for _, r := range reports {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.3f\t%.3f\t%s\n",
			r.Kind, r.Encounters, r.Workers, r.TotalUs/1e3, r.MeanImb, r.WorstImb, r.Advice)
	}
	tw.Flush()
}
