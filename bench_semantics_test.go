// Benchmarks for the extension layer: temporal-path criteria, the
// dynamic adjacency store, reachability sketches, and greedy influence
// maximization (DESIGN.md §7).
package evolving_test

import (
	"bytes"
	"fmt"
	"math/rand"
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

// BenchmarkDynamicStoreApply measures batched update throughput of the
// copy-on-write store at several batch sizes: bigger batches amortise
// version creation and per-block rebuilds.
func BenchmarkDynamicStoreApply(b *testing.B) {
	const nodes, stamps = 10_000, 10
	times := make([]int64, stamps)
	for i := range times {
		times[i] = int64(i + 1)
	}
	for _, batchSize := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batchSize), func(b *testing.B) {
			store, err := evolving.NewDynamicStore(nodes, times, true)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			batch := make([]evolving.Update, batchSize)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range batch {
					u := int32(rng.Intn(nodes))
					v := int32(rng.Intn(nodes))
					if u == v {
						v = (v + 1) % nodes
					}
					batch[i] = evolving.Update{U: u, V: v, T: int32(rng.Intn(stamps)), Op: evolving.Insert}
				}
				if _, err := store.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// BenchmarkDynamicSnapshotFreeze measures the read path: taking a
// snapshot is a pointer load; freezing materialises an IntEvolvingGraph.
func BenchmarkDynamicSnapshotFreeze(b *testing.B) {
	const nodes, stamps = 5_000, 8
	times := make([]int64, stamps)
	for i := range times {
		times[i] = int64(i + 1)
	}
	store, err := evolving.NewDynamicStore(nodes, times, true)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var batch []evolving.Update
	for len(batch) < 40_000 {
		u := int32(rng.Intn(nodes))
		v := int32(rng.Intn(nodes))
		if u == v {
			continue
		}
		batch = append(batch, evolving.Update{U: u, V: v, T: int32(rng.Intn(stamps)), Op: evolving.Insert})
	}
	if _, err := store.Apply(batch); err != nil {
		b.Fatal(err)
	}
	b.Run("snapshot", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if store.Snapshot().Seq() != 1 {
				b.Fatal("unexpected version")
			}
		}
	})
	b.Run("freeze", func(b *testing.B) {
		view := store.Snapshot()
		for n := 0; n < b.N; n++ {
			if g := view.Freeze(); g.NumNodes() == 0 {
				b.Fatal("empty freeze")
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

// BenchmarkJournalReplay measures write-ahead logging overhead and
// recovery speed.
func BenchmarkJournalReplay(b *testing.B) {
	const nodes, stamps, batches = 5_000, 8, 200
	times := make([]int64, stamps)
	for i := range times {
		times[i] = int64(i + 1)
	}
	rng := rand.New(rand.NewSource(3))
	var log bytes.Buffer
	logged, err := evolving.NewLoggedStore(&log, nodes, times, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		batch := make([]evolving.Update, 64)
		for j := range batch {
			u := int32(rng.Intn(nodes))
			v := int32(rng.Intn(nodes))
			if u == v {
				v = (v + 1) % nodes
			}
			batch[j] = evolving.Update{U: u, V: v, T: int32(rng.Intn(stamps)), Op: evolving.Insert}
		}
		if _, err := logged.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	blob := log.Bytes()
	b.Run("replay", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for n := 0; n < b.N; n++ {
			if _, got, err := evolving.ReplayJournal(bytes.NewReader(blob)); err != nil || got != batches {
				b.Fatalf("replay: %d batches, %v", got, err)
			}
		}
	})
}
