package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The workloads refuse a single processor; a one-CPU test box still has
// to be able to run them at quick scale.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	os.Exit(m.Run())
}

func quickConfig(workload string, trace bool, out string) config {
	return config{workload: workload, seed: 7, seconds: 1, quick: true, trace: trace, outDir: out}
}

// TestBenchmarkJSONMatches pins the program's workload and metric names
// and units to BENCHMARK.json: later issues cite those names, so neither
// side may drift alone.
func TestBenchmarkJSONMatches(t *testing.T) {
	f, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: file has %v, program has %v", names, workloadNames)
	}
	hasSetup := false
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s")
	}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s")
	}
	sameMetrics(t, "end_to_end", e2e, endToEndMetrics)
	sameMetrics(t, "per_layer", layer, perLayerMetrics)
	if len(f.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(f.PerLayer))
	}
}

// sameMetrics reports every name or unit on which the file's list and the
// program's table differ.
func sameMetrics(t *testing.T, list string, file map[string]string, program []metricDef) {
	t.Helper()
	seen := map[string]bool{}
	for _, d := range program {
		if seen[d.name] {
			t.Errorf("%s: program lists %s twice", list, d.name)
		}
		seen[d.name] = true
		switch unit, ok := file[d.name]; {
		case !ok:
			t.Errorf("%s: %s is printed by the program but not in BENCHMARK.json", list, d.name)
		case unit != d.unit:
			t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", list, d.name, unit, d.unit)
		}
	}
	for name := range file {
		if !seen[name] {
			t.Errorf("%s: %s is in BENCHMARK.json but not printed by the program", list, name)
		}
	}
}

// checkResult asserts the result line's schema: exactly the four keys, and
// exactly the listed metrics, each a finite number with the listed unit.
func checkResult(t *testing.T, res *result, defs []metricDef, positive bool) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(line, &generic); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := generic[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(generic) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(generic), line)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", d.name, m.Value)
		}
	}
}

func TestQuickWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runBenchmark(quickConfig(name, false, ""), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndMetrics, true)
		})
	}
}

// TestTracedRun checks a traced run end to end: every per-layer metric is
// reported (the run also visits the other four workloads for their rows),
// and the Chrome trace it writes is a well-formed span forest.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{"finegrain", "serve-mix", "reweave-live"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runBenchmark(quickConfig(name, true, dir), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayerMetrics, false)
			if res.Metrics["trace.spans"].Value < 4 {
				t.Errorf("trace.spans = %v", res.Metrics["trace.spans"].Value)
			}

			data, err := os.ReadFile(filepath.Join(dir, name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Ts   float64
					Dur  float64
					Tid  int
					Args struct {
						ID, Parent, Sample int
					}
				}
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatalf("trace does not load: %v", err)
			}
			type ev = struct {
				ts, end float64
				tid     int
			}
			byID := map[int]ev{}
			for _, e := range file.TraceEvents {
				if e.Ph != "X" {
					continue
				}
				if e.Dur < 0 || e.Name == "" {
					t.Errorf("span %d: name %q dur %v", e.Args.ID, e.Name, e.Dur)
				}
				if _, dup := byID[e.Args.ID]; dup || e.Args.ID == 0 {
					t.Errorf("span id %d repeated or zero", e.Args.ID)
				}
				byID[e.Args.ID] = ev{e.Ts, e.Ts + e.Dur, e.Tid}
			}
			const slack = 0.002 // µs: ts and dur are rounded separately
			for _, e := range file.TraceEvents {
				if e.Ph != "X" || e.Args.Parent == 0 {
					continue
				}
				p, ok := byID[e.Args.Parent]
				switch {
				case !ok:
					t.Errorf("span %d: parent %d not in the trace", e.Args.ID, e.Args.Parent)
				case p.tid != e.Tid:
					t.Errorf("span %d on track %d, parent %d on track %d", e.Args.ID, e.Tid, e.Args.Parent, p.tid)
				case e.Ts < p.ts-slack || e.Ts+e.Dur > p.end+slack:
					t.Errorf("span %d [%v,%v] leaves its parent [%v,%v]", e.Args.ID, e.Ts, e.Ts+e.Dur, p.ts, p.end)
				}
			}
		})
	}
}

func TestRefusesSingleProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, err := runBenchmark(quickConfig("finegrain", false, ""), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS=1") {
		t.Fatalf("GOMAXPROCS=1 not refused: %v", err)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := runBenchmark(quickConfig("nope", false, ""), io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestSeedDeterminism: the same seed draws the same inputs — request
// stream, reconfiguration script, loop data — and another seed does not.
func TestSeedDeterminism(t *testing.T) {
	env := func(seed int64) *runEnv {
		return &runEnv{seed: seed, width: 2, tally: &tally{}, sc: scale{quick: true}}
	}
	a, b, c := newServe(env(3)), newServe(env(3)), newServe(env(4))
	if !reflect.DeepEqual(a.kinds, b.kinds) {
		t.Error("serve-mix: same seed, different request streams")
	}
	if reflect.DeepEqual(a.kinds, c.kinds) {
		t.Error("serve-mix: different seeds, same request stream")
	}
	x, y, z := newReweave(env(3)), newReweave(env(3)), newReweave(env(4))
	if !reflect.DeepEqual(x.script, y.script) || x.rebuilds != y.rebuilds {
		t.Error("reweave-live: same seed, different scripts or rebuild counts")
	}
	if reflect.DeepEqual(x.script, z.script) {
		t.Error("reweave-live: different seeds, same script")
	}
	f, g, h := newFinegrain(env(3)), newFinegrain(env(3)), newFinegrain(env(4))
	if !reflect.DeepEqual(f.data, g.data) || f.want != g.want {
		t.Error("finegrain: same seed, different data")
	}
	if reflect.DeepEqual(f.data, h.data) {
		t.Error("finegrain: different seeds, same data")
	}
}
