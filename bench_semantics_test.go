// Benchmarks for the extension layer: temporal-path criteria,
// reachability sketches, and greedy influence maximization (DESIGN.md
// §7).
package evolving_test

import (
	"fmt"
	"testing"

	evolving "repro"
)

// BenchmarkPathCriteria compares the cost of the four optimality
// criteria on one workload. Shortest/foremost/latest-departure are each
// a single BFS; fastest pays one pruned scan per departure stamp of the
// source.
func BenchmarkPathCriteria(b *testing.B) {
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 5_000, Stamps: 10, Edges: 50_000, Directed: true, Seed: 31,
	})
	src := int32(g.ActiveNodes(0).NextSet(0))
	root := evolving.TemporalNode{Node: src, Stamp: g.ActiveStamps(src)[0]}
	dst := int32(g.NumNodes() - 1)
	for len(g.ActiveStamps(dst)) == 0 {
		dst--
	}

	b.Run("shortest", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := evolving.BFS(g, root, evolving.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("foremost", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := evolving.Foremost(g, root, evolving.CausalAllPairs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("latest-departure", func(b *testing.B) {
		target := evolving.TemporalNode{Node: dst, Stamp: g.ActiveStamps(dst)[len(g.ActiveStamps(dst))-1]}
		for n := 0; n < b.N; n++ {
			if _, err := evolving.LatestDeparture(g, target, evolving.CausalAllPairs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fastest", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := evolving.Fastest(g, src, dst, evolving.CausalAllPairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSketchVsExactInfluence pits the sketched all-sources
// influence estimate against the exact per-source BFS sweep it
// replaces. The sketch build is one condensation pass; the exact sweep
// is |V| searches.
func BenchmarkSketchVsExactInfluence(b *testing.B) {
	for _, nodes := range []int{500, 2_000} {
		g := evolving.GNP(nodes, 8, 4.0/float64(nodes), true, 13)
		b.Run(fmt.Sprintf("sketch-build/n=%d", nodes), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.BuildReachSketches(g, evolving.CausalConsecutive, 64, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("exact-sweep/n=%d", nodes), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for v := int32(0); v < int32(g.NumNodes()); v++ {
					stamps := g.ActiveStamps(v)
					if len(stamps) == 0 {
						continue
					}
					root := evolving.TemporalNode{Node: v, Stamp: stamps[0]}
					if _, err := evolving.BFS(g, root, evolving.Options{Mode: evolving.CausalConsecutive}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkGreedyInfluence measures CELF seed selection on a synthetic
// citation network (Sec. V workload).
func BenchmarkGreedyInfluence(b *testing.B) {
	cfg := evolving.DefaultCitationConfig()
	cfg.Authors = 400
	cfg.Stamps = 10
	cfg.PubProb = 0.2
	g, _ := evolving.SyntheticCitation(cfg)
	for _, k := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.GreedyInfluence(g, k, evolving.InfluenceOptions{ReverseEdges: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMotifCensus measures the 2-edge degree-profile counter and
// the wedge-probing triangle counter at growing window widths: the
// 2-edge census scales with |Ẽ|·δ, the triangles with wedges·δ.
func BenchmarkMotifCensus(b *testing.B) {
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 2_000, Stamps: 12, Edges: 30_000, Directed: true, Seed: 77,
	})
	for _, delta := range []int{1, 4, 11} {
		b.Run(fmt.Sprintf("2edge/delta=%d", delta), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.CountMotifs2(g, delta); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("triangle/delta=%d", delta), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.CountTriangleMotifs(g, delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWindowRoll measures sliding-window materialisation plus the
// per-position BFS across the whole time axis.
func BenchmarkWindowRoll(b *testing.B) {
	g := evolving.Random(evolving.RandomConfig{
		Nodes: 2_000, Stamps: 16, Edges: 30_000, Directed: true, Seed: 55,
	})
	root := int32(g.ActiveNodes(0).NextSet(0))
	for _, width := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := evolving.RollWindows(g, width, root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
