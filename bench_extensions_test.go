// Extension benchmarks: the design-choice ablations DESIGN.md calls out
// beyond the paper's own figures.
package evolving_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	evolving "repro"
)

// BenchmarkAlg1VsAlg2Sparse extends the Sec. IV comparison with the
// future-work sparse-frontier algebraic BFS: it should track Algorithm 1
// within a small constant factor while the gaxpy Algorithm 2 falls
// behind as the graph grows.
func BenchmarkAlg1VsAlg2Sparse(b *testing.B) {
	for _, edges := range []int{5_000, 20_000, 80_000} {
		g := evolving.Random(evolving.RandomConfig{
			Nodes: edges / 10, Stamps: 8, Edges: edges, Directed: true, Seed: 23,
		})
		root := evolving.TemporalNode{Node: int32(g.ActiveNodes(0).NextSet(0)), Stamp: 0}
		b.Run(fmt.Sprintf("Alg1/edges=%d", edges), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.BFS(g, root, evolving.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("SparseABFS/edges=%d", edges), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.SparseABFS(g, root, evolving.CausalAllPairs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("GaxpyABFS/edges=%d", edges), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.ABFS(g, root, evolving.CausalAllPairs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineCSRVsMaps races the default flat CSR/bitset BFS engine
// against the adjacency-map oracle (DESIGN.md §8) on the Fig. 5 random
// workload. The two return bit-identical results; the gap is pure
// engine overhead and should widen with graph size.
func BenchmarkEngineCSRVsMaps(b *testing.B) {
	for _, edges := range []int{20_000, 80_000, 320_000} {
		g := evolving.Random(evolving.RandomConfig{
			Nodes: edges / 10, Stamps: 8, Edges: edges, Directed: true, Seed: 8189,
		})
		g.CSR() // build the view outside the timed loop
		root := evolving.TemporalNode{Node: int32(g.ActiveNodes(0).NextSet(0)), Stamp: 0}
		b.Run(fmt.Sprintf("CSR/edges=%d", edges), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.BFS(g, root, evolving.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Maps/edges=%d", edges), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.BFS(g, root, evolving.Options{UseAdjacencyMaps: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGateCSRVsMaps is the CI gate on the default engine: on the
// largest graph of each workload, the CSR engine must return what the
// adjacency-map oracle returns and then run at least as fast (≥ 1×).
// Single-source BFS runs on the 200k-arc graph of a Fig. 5 random
// series; the three analytics, which search from every active temporal
// node, run on a 6k-arc one. Each side is timed best of 3 after one
// untimed warm-up. Only -bench runs it:
//
//	go test -run '^$' -bench GateCSRVsMaps -benchtime 1x .
func BenchmarkGateCSRVsMaps(b *testing.B) {
	const seed = 2016
	search := evolving.RandomSeries(2000, 10, []int{100_000, 200_000}, true, seed)[1]
	sweep := evolving.RandomSeries(400, 10, []int{3_000, 6_000}, true, seed)[1]
	var root evolving.TemporalNode
	for t := 0; t < search.NumStamps(); t++ {
		if v := search.ActiveNodes(t).NextSet(0); v >= 0 {
			root = evolving.TemporalNode{Node: int32(v), Stamp: int32(t)}
			break
		}
	}

	gates := []struct {
		name string
		g    *evolving.Graph
		run  func(g *evolving.Graph, maps bool) (any, error)
	}{
		{"bfs", search, func(g *evolving.Graph, maps bool) (any, error) {
			res, err := evolving.BFS(g, root, evolving.Options{UseAdjacencyMaps: maps})
			if err != nil {
				return nil, err
			}
			return res.LevelSizes(), nil
		}},
		{"components", sweep, func(g *evolving.Graph, maps bool) (any, error) {
			return evolving.ComponentSizeDistribution(g, evolving.ComponentOptions{UseAdjacencyMaps: maps}), nil
		}},
		{"influence", sweep, func(g *evolving.Graph, maps bool) (any, error) {
			return evolving.GreedyInfluence(g, 5, evolving.InfluenceOptions{UseAdjacencyMaps: maps})
		}},
		{"closeness", sweep, func(g *evolving.Graph, maps bool) (any, error) {
			return evolving.GlobalEfficiencyOpts(g, evolving.MetricOptions{UseAdjacencyMaps: maps}), nil
		}},
	}
	for _, gate := range gates {
		b.Run(gate.name, func(b *testing.B) {
			csr, err := gate.run(gate.g, false)
			if err != nil {
				b.Fatal(err)
			}
			maps, err := gate.run(gate.g, true)
			if err != nil {
				b.Fatal(err)
			}
			if !reflect.DeepEqual(csr, maps) {
				b.Fatalf("engines disagree:\ncsr  %v\nmaps %v", csr, maps)
			}
			mapsTime := bestOf(func() { gate.run(gate.g, true) })
			csrTime := bestOf(func() { gate.run(gate.g, false) })
			ratio := float64(mapsTime) / float64(csrTime)
			b.ReportMetric(float64(mapsTime.Microseconds())/1e3, "maps-ms")
			b.ReportMetric(float64(csrTime.Microseconds())/1e3, "csr-ms")
			b.ReportMetric(ratio, "speedup")
			if ratio < 1 {
				b.Fatalf("CSR %v is %.2f× maps %v, want ≥ 1×", csrTime, ratio, mapsTime)
			}
		})
	}
}

// bestOf returns the fastest of 3 timed calls of fn after one untimed
// warm-up, which builds the lazily cached CSR view. Each window starts
// on a collected heap, so the garbage of one call is not charged to
// the next.
func bestOf(fn func()) time.Duration {
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

// BenchmarkPageRankWarmVsCold measures the ref. [2] trick: warm-starting
// each snapshot's PageRank from the previous one on a slowly changing
// graph.
func BenchmarkPageRankWarmVsCold(b *testing.B) {
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 5_000, Stamps: 10, Edges: 200_000, Directed: true, Seed: 31,
	})
	b.Run("warm", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			res, err := evolving.EvolvingPageRank(g, evolving.PageRankOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.TotalIterations()), "iters")
		}
	})
	b.Run("cold", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			res, err := evolving.EvolvingPageRank(g, evolving.PageRankOptions{ColdStart: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.TotalIterations()), "iters")
		}
	})
}

// BenchmarkWeakComponents measures the union-find pass over the
// unfolding.
func BenchmarkWeakComponents(b *testing.B) {
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 20_000, Stamps: 10, Edges: 100_000, Directed: true, Seed: 37,
	})
	for n := 0; n < b.N; n++ {
		comps := evolving.WeakComponents(g, evolving.CausalAllPairs)
		if len(comps) == 0 {
			b.Fatal("no components")
		}
	}
}

// BenchmarkTemporalKatz measures the blocked power-series kernel.
func BenchmarkTemporalKatz(b *testing.B) {
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 5_000, Stamps: 10, Edges: 50_000, Directed: true, Seed: 41,
	})
	for n := 0; n < b.N; n++ {
		if _, err := evolving.TemporalKatz(g, evolving.KatzOptions{Alpha: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}
