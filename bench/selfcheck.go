package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// selfCheck runs every workload as two independent sets of runs, each run
// in its own process with its own seed, and compares the sets' medians of
// every end-to-end metric against the bound BENCHMARK.json fixes for it.
// Nothing changed between the sets, so a difference beyond the bound means
// the benchmark, not the library, is too noisy on this host to judge a
// change by. It returns the process exit code.
func selfCheck(c config, runs int, log io.Writer) int {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(log, "bench: -selfcheck runs from the repository root:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(log, "bench:", err)
		return 2
	}
	bad := 0
	for _, name := range workloadNames {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				seed := c.seed + int64(s*runs+r)
				cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(c.seconds))
				if c.quick {
					cmd.Args = append(cmd.Args, "-quick")
				}
				var errOut strings.Builder
				cmd.Stderr = &errOut
				out, err := cmd.Output()
				if err != nil {
					fmt.Fprintf(log, "bench: %s seed %d: %v\n%s", name, seed, err, errOut.String())
					return 2
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					fmt.Fprintf(log, "bench: %s seed %d: bad result line: %v\n", name, seed, err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(log, "bench: %s seed %d: %d of %d checks failed\n", name, seed, res.Failed, res.Attempted)
					bad++
				}
				for m, v := range res.Metrics {
					sets[s][m] = append(sets[s][m], v.Value)
				}
				// The noise floor first: what the host did to code that
				// did not change.
				for _, line := range strings.Split(errOut.String(), "\n") {
					if strings.Contains(line, "env.seq_spread") || strings.Contains(line, "env.spin_spread") {
						fmt.Fprintf(log, "%s seed %d:%s\n", name, seed, line)
					}
				}
			}
		}
		for _, d := range endToEndMetrics {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			diff := (b - a) / a
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > bounds[d.name] {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Fprintf(log, "%-13s %-16s set1 %12.6g  set2 %12.6g  diff %5.1f%%  bound %4.1f%%  %s\n",
				name, d.name, a, b, 100*diff, 100*bounds[d.name], verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(log, "bench: selfcheck failed: %d metric(s) outside their bound\n", bad)
		return 1
	}
	fmt.Fprintln(log, "bench: selfcheck passed")
	return 0
}

// benchmarkFile is the part of BENCHMARK.json the program reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func readBounds(path string) (map[string]float64, error) {
	f, err := readBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
