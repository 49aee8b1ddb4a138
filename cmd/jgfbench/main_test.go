package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aomplib"
	"aomplib/internal/jgf/harness"
)

// TestPositionalArgumentRejected: `jgfbench crypt -size=A -threads=4` must
// exit 2 with usage instead of dropping the flags after the argument and
// running the whole suite at the defaults. The test binary re-executes
// itself as the command.
func TestPositionalArgumentRejected(t *testing.T) {
	if os.Getenv("JGFBENCH_AS_MAIN") == "1" {
		os.Args = []string{"jgfbench", "crypt", "-size=A", "-threads=4"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPositionalArgumentRejected$")
	cmd.Env = append(os.Environ(), "JGFBENCH_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("jgfbench crypt -size=A -threads=4: %v, want exit status 2; output:\n%.400s", err, out)
	}
	if !strings.Contains(string(out), `unexpected argument "crypt"`) || !strings.Contains(string(out), "-only") {
		t.Fatalf("no usage in the output:\n%.400s", out)
	}
}

// TestUnknownSizeRejected: `-size a` (a lowercase typo) or `-size Z` must
// exit 2 with usage naming the valid sizes, not measure the test size and
// label the -json record with the typo.
func TestUnknownSizeRejected(t *testing.T) {
	if size := os.Getenv("JGFBENCH_SIZE"); size != "" {
		os.Args = []string{"jgfbench", "-size=" + size, "-threads=1", "-rounds=1", "-only=crypt"}
		main()
		return
	}
	for _, size := range []string{"a", "Z"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownSizeRejected$")
		cmd.Env = append(os.Environ(), "JGFBENCH_SIZE="+size)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("jgfbench -size=%s: %v, want exit status 2; output:\n%.400s", size, err, out)
		}
		for _, want := range []string{`unknown -size "` + size + `"`, "test", "A", "B", "-only"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("jgfbench -size=%s: output lacks %q:\n%.400s", size, want, out)
			}
		}
	}
}

// TestSuiteRounds runs the whole suite at test size, two threads, two
// rounds, through main: every variant of every kernel must validate in
// every round, and every kernel must report its Aomp/JGF-MT quotient.
func TestSuiteRounds(t *testing.T) {
	if path := os.Getenv("JGFBENCH_SUITE_JSON"); path != "" {
		os.Args = []string{"jgfbench", "-size=test", "-threads=2", "-rounds=2", "-json=" + path}
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "suite.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestSuiteRounds$")
	cmd.Env = append(os.Environ(), "JGFBENCH_SUITE_JSON="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("jgfbench -size=test -threads=2 -rounds=2: %v; output:\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != 6 || rep.Rounds != 2 {
		t.Fatalf("schema %d, rounds %d; want 6 and 2", rep.Schema, rep.Rounds)
	}
	overMT := map[string]bool{}
	for _, r := range rep.Results {
		if !r.Valid || len(r.Seconds) != 2 {
			t.Errorf("%s/%s/%dT: valid=%v (%s) over %d rounds, want valid over 2", r.Benchmark, r.Version, r.Threads, r.Valid, r.Error, len(r.Seconds))
		}
		if r.Version == string(harness.Aomp) && r.OverMT != nil && r.OverMT.Median > 0 {
			overMT[r.Benchmark] = true
		}
	}
	for _, b := range suite("test", aomplib.StaticBlock) {
		if !overMT[b.name] {
			t.Errorf("%s reports no Aomp/JGF-MT quotient", b.name)
		}
	}
}

// failing is a benchmark version whose result never validates.
type failing struct{}

func (failing) Setup()          {}
func (failing) Kernel()         {}
func (failing) Validate() error { return errors.New("wrong answer") }

// TestRunSuiteCountsInvalidVariants: a variant that fails Validate is
// counted, which makes main exit 1, and is rendered INVALID, along with
// the Aomp/JGF-MT quotient it enters.
func TestRunSuiteCountsInvalidVariants(t *testing.T) {
	ok := suite("test", aomplib.StaticBlock)[0]
	b := bench{name: "Broken", seq: ok.seq, mt: ok.mt,
		aomp: func(int) harness.Instance { return failing{} }}
	runs, failures := runSuite([]bench{b}, []int{1}, 2)
	if failures != 1 {
		t.Fatalf("%d failures, want 1 (the Aomp variant)", failures)
	}
	var sb strings.Builder
	render(&sb, runs, []int{1})
	row := strings.Split(strings.TrimSpace(sb.String()), "\n")[2]
	if !strings.HasPrefix(row, "| Broken | 1 |") || strings.Count(row, "INVALID") != 2 {
		t.Fatalf("row %q, want Aomp and Aomp/MT INVALID", row)
	}
}
