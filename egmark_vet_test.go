package evolving_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkHarnessVets type-checks bench/egmark against this tree.
// egmark is a nested module (the benchmark contract fixes its go.mod)
// that imports root packages through `replace ../..`, so `go test ./...`
// never compiles it: renaming an exported name it uses would otherwise
// fail only when the benchmark runs.
func TestBenchmarkHarnessVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module; skipped under -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(gobin, "vet", "-C", "bench/egmark", "./...")
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench/egmark ./...: %v\n%s", err, out)
	}
}
