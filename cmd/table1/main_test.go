package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself instead of the tests when the test
// binary is re-executed with TABLE1_RUN_MAIN set, so a test can observe
// the command's exit status.
func TestMain(m *testing.M) {
	if os.Getenv("TABLE1_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitNonzero: invalid flag values are reported on stderr
// with exit status 1, before any workload is generated.
func TestBadFlagsExitNonzero(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-alpha", "2", "alpha"},
		{"-sample", "0", "sample"},
	} {
		cmd := exec.Command(os.Args[0], tc.flag, tc.value)
		cmd.Env = append(os.Environ(), "TABLE1_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("%s %s: err %v, want exit status 1 (stdout %q, stderr %q)", tc.flag, tc.value, err, stdout.String(), stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Fatalf("%s %s: error not on stderr alone (stdout %q, stderr %q)", tc.flag, tc.value, stdout.String(), stderr.String())
		}
	}
}
