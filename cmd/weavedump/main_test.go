package main

import (
	"bytes"
	"errors"
	"fmt"
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

// TestWeaveGolden pins the -explain weave of all eight kernels to
// testdata/weave.golden: an advice added, dropped, reordered, gated off or
// matched by a different pointcut fails here instead of drifting unnoticed.
func TestWeaveGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/weave.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	dump(&got, nil, true)
	if got.String() != string(want) {
		t.Fatalf("weave drifted from testdata/weave.golden (-golden +now):\n%s\n"+
			"if the change is intended, regenerate it:\n"+
			"\tgo run ./cmd/weavedump -explain > cmd/weavedump/testdata/weave.golden",
			lineDiff(strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")))
	}
}

// lineDiff lists the lines removed from a ("-", numbered in a) and added in
// b ("+", numbered in b) along a longest common subsequence.
func lineDiff(a, b []string) string {
	// lcs[i][j] is the LCS length of a[i:] and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var sb strings.Builder
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			i, j = i+1, j+1
		case i < len(a) && (j == len(b) || lcs[i+1][j] >= lcs[i][j+1]):
			fmt.Fprintf(&sb, "%4d - %s\n", i+1, a[i])
			i++
		default:
			fmt.Fprintf(&sb, "%4d + %s\n", j+1, b[j])
			j++
		}
	}
	return sb.String()
}
