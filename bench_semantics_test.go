// Benchmarks for the extension layer: temporal-path criteria and
// greedy influence maximization (DESIGN.md §7).
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
