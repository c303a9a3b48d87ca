package egraph_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/egraph"
	"repro/internal/gen"
)

// BenchmarkGateCSRBuild gates the flat-view build: on a 20000×10×200000
// graph (gen.Random, seed 2016) the parallel build into recycled
// buffers must be at least as fast as the sequential one, after both
// are asserted bit-identical. Each side is timed best of 3 after one
// untimed warm-up. Only -bench runs it:
//
//	go test -run '^$' -bench GateCSRBuild -benchtime 1x ./internal/egraph
func BenchmarkGateCSRBuild(b *testing.B) {
	g := gen.Random(gen.RandomConfig{Nodes: 20_000, Stamps: 10, Edges: 200_000, Directed: true, Seed: 2016})
	seq := egraph.BuildFlatCSR(g, egraph.CSRBuildOptions{Workers: 1})
	if !reflect.DeepEqual(seq, egraph.BuildFlatCSR(g, egraph.CSRBuildOptions{})) {
		b.Fatal("parallel build differs from sequential")
	}
	bestOf := func(fn func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for r := -1; r < 3; r++ {
			runtime.GC()
			start := time.Now()
			fn()
			if el := time.Since(start); r >= 0 && el < best {
				best = el
			}
		}
		return best
	}
	sequential := bestOf(func() { egraph.BuildFlatCSR(g, egraph.CSRBuildOptions{Workers: 1}) })
	var arena *egraph.CSRArena
	parallel := bestOf(func() {
		arena = egraph.BuildFlatCSR(g, egraph.CSRBuildOptions{Arena: arena}).Recycle()
	})
	// The reference view stays live through both timings. Freed, it
	// leaves a heap so small that every sequential build faults in
	// fresh pages, and the ratio doubles on a 2-core machine.
	runtime.KeepAlive(seq)
	ratio := float64(sequential) / float64(parallel)
	b.ReportMetric(float64(sequential.Microseconds())/1e3, "seq-ms")
	b.ReportMetric(float64(parallel.Microseconds())/1e3, "par-ms")
	b.ReportMetric(ratio, "speedup")
	if ratio < 1 {
		b.Fatalf("parallel build %v is %.2f× sequential %v, want ≥ 1×", parallel, ratio, sequential)
	}
}
