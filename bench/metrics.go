package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names a metric and its unit. The two tables below are the
// program's side of BENCHMARK.json; TestBenchmarkJSONMatches fails when
// either drifts from the file.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the library sees, defined on cell
// roles (rounds.go) so that every workload reports every one of them.
var endToEndMetrics = []metricDef{
	// Median of the set-up repetitions: input generation, registration,
	// Weave, pool warm-up.
	{"setup_s", "s"},
	// Library version at width T: time of the workload's fixed work ÷ the
	// sequential version's, paired per round.
	{"pass_over_seq", "ratio"},
	// lib ÷ ref, paired per round — the paper's "<1% over hand-threaded".
	{"over_ref", "ratio"},
	// serial ÷ seq, paired per round — "sequential semantics when unplugged".
	{"serial_over_seq", "ratio"},
}

var kernelNames = []string{"series", "crypt", "montecarlo", "raytracer", "lufact", "sor", "sparse", "moldyn"}

// perLayerMetrics are reported by a traced run: the layer sheet (unit
// costs of each module's public entry points), every workload's own rows
// (the named workload over its traced rounds, the others from one sheet
// round each), the runtime's counts over the traced rounds, and the
// host-noise rows.
var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"weaver.unwoven_call_ns", "ns"}, {"weaver.disabled_call_ns", "ns"}, {"weaver.gated_call_ns", "ns"},
		{"weaver.toggle_us", "us"}, {"weaver.use_remove_us", "us"}, {"weaver.unweave_ms", "ms"},
		{"weaver.chain_rebuilds", "count"}, {"weaver.full_weave_ms", "ms"},
		{"pointcut.parse_us", "us"}, {"pointcut.match_ns", "ns"},
		{"gls.worker_lookup_ns", "ns"},
		{"core.region_warm_ns", "ns"},
		{"core.for_static_ns", "ns"}, {"core.for_cyclic_ns", "ns"}, {"core.for_dynamic_ns", "ns"},
		{"core.for_guided_ns", "ns"}, {"core.for_steal_ns", "ns"}, {"core.for_adaptive_ns", "ns"},
		{"core.critical_ns", "ns"}, {"core.single_ns", "ns"}, {"core.reduce_ns", "ns"},
		{"rt.region_cold_ns", "ns"}, {"rt.barrier_phase_ns", "ns"},
		{"rt.task_spawn_wait_ns", "ns"}, {"rt.depend_chain_ns", "ns"},
		{"rt.pool_hit_share", "ratio"}, {"rt.admit_wait_p50_us", "us"}, {"rt.admit_wait_p99_us", "us"},
		{"rt.admit_queued_share", "ratio"},
		{"rt.regions", "count"}, {"rt.barrier_waits", "count"}, {"rt.barrier_wait_ms", "ms"},
		{"rt.loop_encounters", "count"}, {"rt.steal_attempts", "count"}, {"rt.steal_success_share", "ratio"},
		{"rt.tasks_spawned", "count"}, {"rt.region_p50_us", "us"},
		{"sched.resolve_ns", "ns"}, {"sched.dispense_ns", "ns"},
		{"obs.metrics_region_ratio", "ratio"}, {"obs.traced_region_ratio", "ratio"},
		{"obs.trace_overhead_share", "ratio"},
		{"parallel.for_entry_ns", "ns"}, {"parallel.reduce_entry_ns", "ns"}, {"parallel.sort_ms", "ms"},
		{"graph.pagerank_req_us", "us"}, {"jgf.montecarlo.req_us", "us"},
	}
	for _, k := range kernelNames {
		for _, f := range []string{"seq_s", "aomp1_s", "mt_s", "aomp_s"} {
			m = append(m, metricDef{"jgf." + k + "." + f, "s"})
		}
		m = append(m, metricDef{"jgf." + k + ".aomp_over_mt", "ratio"})
	}
	return append(m,
		metricDef{"jgf.lufact.aompdf_s", "s"}, metricDef{"jgf.sor.aompdf_s", "s"}, metricDef{"jgf.sor.par_s", "s"},
		metricDef{"jgf-coarse.aomp_speedup", "ratio"}, metricDef{"jgf-sync.aomp_speedup", "ratio"},
		metricDef{"jgf-sync.aompdf_time_s", "s"},
		metricDef{"finegrain.small_region_us", "us"}, metricDef{"finegrain.ref_region_us", "us"},
		metricDef{"finegrain.unplugged_us", "us"}, metricDef{"finegrain.plain_us", "us"},
		metricDef{"serve.rps", "1/s"}, metricDef{"serve.p50_ms", "ms"}, metricDef{"serve.p99_ms", "ms"},
		metricDef{"serve.fairness", "ratio"},
		metricDef{"reweave.calls_per_s", "1/s"}, metricDef{"reweave.reconfig_us", "us"},
		metricDef{"trace.spans", "count"}, metricDef{"trace.library_self_ms", "ms"},
		metricDef{"trace.harness_self_ms", "ms"},
		metricDef{"pass_ms", "ms"},
		metricDef{"env.spin_ms", "ms"}, metricDef{"env.spin_spread", "ratio"}, metricDef{"env.steal_ticks", "count"},
		metricDef{"env.seq_spread", "ratio"}, metricDef{"env.warmup_ms", "ms"},
	)
}()

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"jgf-coarse", "jgf-sync", "finegrain", "serve-mix", "reweave-live"}

// sampleInfo is printed beside a median so a reader sees what it is the
// median of.
type sampleInfo struct {
	n        int
	min, max float64
}

// report collects metric values by name.
type report struct {
	vals map[string]float64
	info map[string]sampleInfo
}

func newReport() *report {
	return &report{vals: map[string]float64{}, info: map[string]sampleInfo{}}
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

// setSamples records the median of xs (already in the metric's unit) with
// its min, max and count.
func (r *report) setSamples(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	lo, hi := minMax(xs)
	r.vals[name] = median(xs)
	r.info[name] = sampleInfo{n: len(xs), min: lo, max: hi}
}

// scaled returns xs multiplied by k (seconds to the metric's unit).
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the listed metrics, failing on one the run did not
// measure: a silently missing row would read as "no change" downstream.
func (r *report) pick(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// print writes every measured metric as a table: value, unit, and where
// the value is a median, its min, max and sample count.
func (r *report) print(w io.Writer) {
	unit := map[string]string{}
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			unit[d.name] = d.unit
		}
	}
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s", n, r.vals[n], unit[n])
		if in, ok := r.info[n]; ok {
			fmt.Fprintf(w, " min %.6g max %.6g n=%d", in.min, in.max, in.n)
		}
		fmt.Fprintln(w)
	}
}
