package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestPositionalArgumentRejected: `weavedump lufact` must exit 2 with usage
// instead of ignoring the argument and dumping all eight kernels. The test
// binary re-executes itself as the command.
func TestPositionalArgumentRejected(t *testing.T) {
	if os.Getenv("WEAVEDUMP_AS_MAIN") == "1" {
		os.Args = []string{"weavedump", "lufact"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPositionalArgumentRejected$")
	cmd.Env = append(os.Environ(), "WEAVEDUMP_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("weavedump lufact: %v, want exit status 2; output:\n%.400s", err, out)
	}
	if !strings.Contains(string(out), `unexpected argument "lufact"`) || !strings.Contains(string(out), "-only") {
		t.Fatalf("no usage in the output:\n%.400s", out)
	}
}
