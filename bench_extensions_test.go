// Extension benchmarks: the design-choice ablations DESIGN.md calls out
// beyond the paper's own figures.
package evolving_test

import (
	"fmt"
	"testing"

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
