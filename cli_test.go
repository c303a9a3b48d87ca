package evolving_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandsHandleDegenerateInput builds egstats and eggen and runs
// them on inputs at the edge of their domain: a valid graph with no
// active temporal node must profile as zero components, and parameters
// a generator rejects must be a one-line usage error (exit 2). Neither
// may die with a Go panic.
func TestCommandsHandleDegenerateInput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two commands; skipped under -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	dir := t.TempDir()
	for _, name := range []string{"egstats", "eggen"} {
		cmd := exec.Command(gobin, "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	graphs := map[string]string{
		"comments.txt":  "# no edges at all\n\n",
		"selfloops.txt": "0 0 1\n3 3 2\n",
	}
	for name, body := range graphs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		args     []string
		wantExit int
		wantOut  string
	}{
		{[]string{"egstats", "-graph", filepath.Join(dir, "comments.txt")}, 0, "weak components:        0 "},
		{[]string{"egstats", "-graph", filepath.Join(dir, "selfloops.txt"), "-full"}, 0, "weak components:        0 "},
		{[]string{"eggen", "-nodes", "0"}, 2, ""},
		{[]string{"eggen", "-stamps", "0"}, 2, ""},
		{[]string{"eggen", "-model", "citation", "-nodes", "0"}, 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, tc.args[0]), tc.args[1:]...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		exit := 0
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("%v: %v", tc.args, err)
			}
			exit = ee.ExitCode()
		}
		if exit != tc.wantExit {
			t.Errorf("%v: exit %d, want %d\nstderr: %s", tc.args, exit, tc.wantExit, stderr.String())
		}
		if s := stderr.String(); strings.Contains(s, "panic:") || strings.Contains(s, "goroutine") {
			t.Errorf("%v: stderr carries a Go panic:\n%s", tc.args, s)
		}
		if !strings.Contains(stdout.String(), tc.wantOut) {
			t.Errorf("%v: stdout lacks %q:\n%s", tc.args, tc.wantOut, stdout.String())
		}
		if tc.wantExit == 2 && strings.Count(strings.TrimSpace(stderr.String()), "\n") != 0 {
			t.Errorf("%v: want a one-line error, got:\n%s", tc.args, stderr.String())
		}
	}
}
