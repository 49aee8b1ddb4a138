package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestPositionalArgumentRejected: `moldynstudy -moves=1 8 -threads=4` must
// exit 2 with usage instead of dropping the flags after the argument and
// running the study at the defaults. The test binary re-executes itself as
// the command.
func TestPositionalArgumentRejected(t *testing.T) {
	if os.Getenv("MOLDYNSTUDY_AS_MAIN") == "1" {
		os.Args = []string{"moldynstudy", "-mm=2", "-moves=1", "8", "-threads=4"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPositionalArgumentRejected$")
	cmd.Env = append(os.Environ(), "MOLDYNSTUDY_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("moldynstudy -mm=2 -moves=1 8 -threads=4: %v, want exit status 2; output:\n%.400s", err, out)
	}
	if !strings.Contains(string(out), `unexpected argument "8"`) || !strings.Contains(string(out), "-mm") {
		t.Fatalf("no usage in the output:\n%.400s", out)
	}
}
