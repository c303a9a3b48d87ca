// Benchmark harness: one benchmark per figure/claim of the paper's
// evaluation, per the experiment index in DESIGN.md. Run:
//
//	go test -bench=. -benchmem .
//
// Absolute times depend on the machine; the *shapes* are what reproduce
// the paper: BenchmarkFig5ScalingBFS must grow at most linearly with
// |Ẽ| (Thm. 2 / Fig. 5), the adjacency-list BFS must beat both algebraic
// variants (Sec. IV's closing claim), and CSC must beat dense (Thm. 6 vs
// Thm. 5). BenchmarkFig5ScalingBFS reports the Fig. 5 coefficient
// directly as ns/static-edge.
package evolving_test

import (
	"fmt"
	"testing"

	evolving "repro"
)

// fig5Sizes is the default |Ẽ| sweep: the paper's shape (1e8..5e8 on a
// 1 TB Xeon) scaled to a CI-sized budget with the same 10-stamp layout.
// The node count shrinks with the edge budget so that every point stays
// supercritical (the paper ran at ~1000 edges per node; a sweep that
// straddles the percolation threshold would measure component size, not
// |Ẽ| scaling).
var fig5Sizes = []int{250_000, 500_000, 1_000_000, 2_000_000}

// BenchmarkFig5ScalingBFS regenerates Figure 5: Algorithm 1 runtime vs
// |Ẽ| at 1e4 nodes and 10 stamps. Each sub-benchmark reports its time
// per static edge (ns/static-edge), the coefficient of Fig. 5's line.
// Theorem 2 bounds it from above, so it must not grow along the sweep;
// it falls on the larger graphs, whose wide levels the engine runs on
// bitmaps without scanning every arc (DESIGN.md §6).
func BenchmarkFig5ScalingBFS(b *testing.B) {
	series := evolving.RandomSeries(10_000, 10, fig5Sizes, true, 2016)
	for i, g := range series {
		g.CSR() // build the view outside the timed loop
		root := evolving.TemporalNode{Node: int32(g.ActiveNodes(0).NextSet(0)), Stamp: 0}
		b.Run(fmt.Sprintf("edges=%d", fig5Sizes[i]), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				res, err := evolving.BFS(g, root, evolving.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.NumReached() == 0 {
					b.Fatal("BFS reached nothing")
				}
			}
			b.ReportMetric(float64(g.StaticEdgeCount()), "static-edges")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.StaticEdgeCount()), "ns/static-edge")
		})
	}
}

// BenchmarkAlg1VsAlg2 reproduces Sec. IV's claim that "the BFS over
// evolving graphs is most efficiently computed in the adjacency list
// representation": Algorithm 1 vs the CSC-blocked and dense Algorithm 2
// on the same mid-sized graph.
func BenchmarkAlg1VsAlg2(b *testing.B) {
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 300, Stamps: 6, Edges: 3_000, Directed: true, Seed: 7,
	})
	root := evolving.TemporalNode{Node: int32(g.ActiveNodes(0).NextSet(0)), Stamp: 0}

	b.Run("Alg1-adjacency-list", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := evolving.BFS(g, root, evolving.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Alg2-CSC-blocked", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := evolving.ABFS(g, root, evolving.CausalAllPairs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Alg2-dense", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := evolving.DenseABFS(g, root, evolving.CausalAllPairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAlgebraicDenseVsCSC isolates Theorem 5 (dense, O(k|V|²)) vs
// Theorem 6 (CSC blocks, O(k(|Ẽ|+|V|))) across graph sizes: the gap must
// widen with |V|.
func BenchmarkAlgebraicDenseVsCSC(b *testing.B) {
	for _, nodes := range []int{100, 200, 400} {
		g := evolving.Random(evolving.RandomConfig{
			Nodes: nodes, Stamps: 5, Edges: 8 * nodes, Directed: true, Seed: 11,
		})
		root := evolving.TemporalNode{Node: int32(g.ActiveNodes(0).NextSet(0)), Stamp: 0}
		b.Run(fmt.Sprintf("CSC/nodes=%d", nodes), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.ABFS(g, root, evolving.CausalAllPairs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dense/nodes=%d", nodes), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.DenseABFS(g, root, evolving.CausalAllPairs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCausalModes is the all-pairs vs consecutive causal-edge
// ablation on a stamp-heavy graph where nodes are active many times
// (all-pairs edge sets grow quadratically with activity).
func BenchmarkCausalModes(b *testing.B) {
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 2_000, Stamps: 50, Edges: 200_000, Directed: true, Seed: 13,
	})
	root := evolving.TemporalNode{Node: int32(g.ActiveNodes(0).NextSet(0)), Stamp: 0}
	b.Run("all-pairs", func(b *testing.B) {
		b.ReportMetric(float64(g.CausalEdgeCount(evolving.CausalAllPairs)), "causal-edges")
		for n := 0; n < b.N; n++ {
			if _, err := evolving.BFS(g, root, evolving.Options{Mode: evolving.CausalAllPairs}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("consecutive", func(b *testing.B) {
		b.ReportMetric(float64(g.CausalEdgeCount(evolving.CausalConsecutive)), "causal-edges")
		for n := 0; n < b.N; n++ {
			if _, err := evolving.BFS(g, root, evolving.Options{Mode: evolving.CausalConsecutive}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPathEnumerationFig2 micro-benchmarks the Figure 2 enumeration
// (the two temporal paths of the running example).
func BenchmarkPathEnumerationFig2(b *testing.B) {
	g := evolving.Figure1Graph()
	from := evolving.TemporalNode{Node: 0, Stamp: 0}
	to := evolving.TemporalNode{Node: 2, Stamp: 2}
	for n := 0; n < b.N; n++ {
		paths, err := evolving.EnumeratePaths(g, from, to, evolving.CausalAllPairs, 0)
		if err != nil || len(paths) != 2 {
			b.Fatalf("paths = %v, err = %v", paths, err)
		}
	}
}

// BenchmarkUnfold measures the Theorem 1 static-graph construction,
// the preprocessing step of the equivalence tests and the weak-component
// oracle.
func BenchmarkUnfold(b *testing.B) {
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 10_000, Stamps: 10, Edges: 100_000, Directed: true, Seed: 17,
	})
	for n := 0; n < b.N; n++ {
		u := g.Unfold(evolving.CausalAllPairs)
		if u.Graph.NumNodes() == 0 {
			b.Fatal("empty unfolding")
		}
	}
}

// BenchmarkCitationMining measures the Sec. V influence queries on the
// synthetic citation network.
func BenchmarkCitationMining(b *testing.B) {
	g, _ := evolving.SyntheticCitation(evolving.DefaultCitationConfig())
	an, err := evolving.NewCitationAnalyzer(g, evolving.CausalAllPairs)
	if err != nil {
		b.Fatal(err)
	}
	author := int32(g.ActiveNodes(0).NextSet(0))
	stamp := g.ActiveStamps(author)[0]
	b.Run("influence", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := an.Influence(author, stamp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("community", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := an.Community(author, stamp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
