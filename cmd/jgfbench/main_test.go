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
