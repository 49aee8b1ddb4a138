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

// TestNonPositiveCountsRejected: `-moves 0` used to fail later with a
// misleading "seq validation failed" and `-rounds 0` would time nothing; both
// must exit 2 with usage before anything runs. The test binary re-executes
// itself as the command.
func TestNonPositiveCountsRejected(t *testing.T) {
	if args := os.Getenv("MOLDYNSTUDY_ARGS"); args != "" {
		os.Args = append([]string{"moldynstudy"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-mm=2 -moves=0", "-mm=2 -moves=-3", "-mm=2 -moves=1 -rounds=0"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNonPositiveCountsRejected$")
		cmd.Env = append(os.Environ(), "MOLDYNSTUDY_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("moldynstudy %s: %v, want exit status 2; output:\n%.400s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "must be at least 1") || !strings.Contains(string(out), "-moves") {
			t.Errorf("moldynstudy %s: no reason and usage in the output:\n%.400s", args, out)
		}
	}
}
