package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
		os.Args = []string{"jgfbench", "-size=" + size, "-threads=1", "-reps=1", "-only=crypt"}
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

// TestAsymRejected: an -asym pair naming a worker no team of the run has,
// or a spin count the throttle cannot hold, must exit 2 with usage rather
// than run unthrottled (or truncated) under a report that records the
// asymmetry — and must not size anything by the worker ID first.
func TestAsymRejected(t *testing.T) {
	if args := os.Getenv("JGFBENCH_ASYM_ARGS"); args != "" {
		os.Args = append([]string{"jgfbench", "-size=test", "-reps=1", "-only=crypt"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, want string }{
		{"-threads=1,2 -asym=5:300", "worker 5 is in no team"},
		{"-threads=1 -asym=4000000000:1", "worker 4000000000 is in no team"},
		{"-threads=1 -asym=0:5000000000", "5000000000 spins exceeds"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestAsymRejected$")
			cmd.Env = append(os.Environ(), "JGFBENCH_ASYM_ARGS="+tc.args)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("jgfbench %s: %v, want exit status 2; output:\n%.400s", tc.args, err, out)
			}
			for _, want := range []string{tc.want, "-asym", "-threads"} {
				if !strings.Contains(string(out), want) {
					t.Fatalf("jgfbench %s: output lacks %q:\n%.400s", tc.args, want, out)
				}
			}
		})
	}
}
