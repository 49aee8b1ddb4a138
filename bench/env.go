package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// fingerprint is the environment a result was taken in. Two results whose
// fingerprints differ are not comparable.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Width      int    `json:"team_width"`
	CPUMax     string `json:"cgroup_cpu_max"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Traced     bool   `json:"traced"`
	Quick      bool   `json:"quick"`
}

func readFingerprint(c config, width int) fingerprint {
	fp := fingerprint{
		Workload: c.workload, Seed: c.seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Width: width,
		CPUMax: "n/a", CPUModel: "n/a", GoVersion: runtime.Version(),
		Traced: c.trace, Quick: c.quick,
	}
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		fp.CPUMax = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// teamWidth is T: every parallel version runs on min(GOMAXPROCS, 4)
// workers, and no workload keeps more than T goroutines runnable, so a
// sample never measures the Go scheduler time-slicing an oversubscribed
// box.
func teamWidth() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// checkProcs refuses a single-processor run: with one P every parallel
// version is the sequential one plus overhead, which is exactly what the
// superseded BENCH_N snapshots recorded.
func checkProcs() error {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return fmt.Errorf("GOMAXPROCS=%d: the benchmark needs at least 2 processors (parallel versions would be time-sliced, not parallel)", n)
	}
	return nil
}

// stealTicks reads the cumulative steal column of /proc/stat (clock
// ticks); -1 where it cannot be read.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return v
}

var spinSink atomic.Uint64

// spin is the fixed calibration loop: its time moves only with the host,
// never with the code under test.
func spin(iters int) time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink.Add(x)
	return time.Since(t0)
}

const spinIters = 2_000_000

// parSpin runs the calibration loop on width goroutines at once and
// returns the wall time: what the host currently charges for a fixed
// amount of plain CPU work at the width the parallel versions use. It is
// taken before and after every round for the env.spin rows. It is no
// yardstick for the workloads, though: on the reference box, stretches of
// many minutes in which every 0.1 s kernel sample ran 10 to 50 % slower
// moved this 5 ms spin by a few percent only.
func parSpin(width, iters int) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 1; i < width; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); spin(iters) }()
	}
	spin(iters)
	wg.Wait()
	return time.Since(t0)
}

// warmMachine spins T goroutines until T spins in parallel take about as
// long as one alone. A virtual CPU that sat idle can take a second or two
// of load before the hypervisor schedules it at full share; without this
// the first rounds of a run measure that ramp, not the program. It gives
// up after maxWait and returns how long it took.
func warmMachine(width int, maxWait time.Duration) time.Duration {
	t0 := time.Now()
	good := 0
	for time.Since(t0) < maxWait && good < 3 {
		solo := spin(4 * spinIters)
		if parSpin(width, 4*spinIters) < solo*5/4 {
			good++
		} else {
			good = 0
		}
	}
	return time.Since(t0)
}
