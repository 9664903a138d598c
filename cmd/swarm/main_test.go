package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRequiredFlags builds swarm and checks that a run without its target
// or its rate fails with a usage line instead of starting.
func TestRequiredFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	bin := filepath.Join(t.TempDir(), "swarm")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no flags", nil},
		{"target without rate", []string{"-target", "http://127.0.0.1:1"}},
		{"rate without target", []string{"-rate", "40"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("swarm %v succeeded:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), "usage: swarm -target") {
				t.Errorf("swarm %v printed no usage line:\n%s", tc.args, out)
			}
		})
	}
}
