package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself instead of the tests when the test
// binary is re-executed with TABLE3_RUN_MAIN set, so a test can observe
// the command's exit status.
func TestMain(m *testing.M) {
	if os.Getenv("TABLE3_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadAlphaExitsNonzero: an invalid flag value is reported on stderr
// with exit status 1, before any workload is generated.
func TestBadAlphaExitsNonzero(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-alpha", "2")
	cmd.Env = append(os.Environ(), "TABLE3_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("-alpha 2: err %v, want exit status 1 (stdout %q, stderr %q)", err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "alpha") || stdout.Len() != 0 {
		t.Fatalf("-alpha 2: error not on stderr alone (stdout %q, stderr %q)", stdout.String(), stderr.String())
	}
}
