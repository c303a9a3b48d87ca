package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
	"repro/internal/gen"
)

// checkLaneSweep sweeps roots under opts on workers goroutines and
// compares every lane with BFS from its root under ref: the level sizes
// must be equal, and the lane's bit must be set in exactly the masks of
// the ids BFS reaches. Reached must list each id with a nonzero mask
// once.
func checkLaneSweep(g *egraph.IntEvolvingGraph, roots []egraph.TemporalNode, opts, ref Options, workers int) error {
	size := int32(g.NumNodes() * g.NumStamps())
	levels := make([][]int, len(roots))
	reached := make([][]int32, len(roots))
	var listed atomic.Int64 // batches whose Reached list is not the nonzero masks
	err := LaneSweep(g, roots, opts, workers, func(b *LaneBatch) {
		nonzero := 0
		for id := int32(0); id < size; id++ {
			mask := b.Mask(id)
			if mask != 0 {
				nonzero++
			}
			for l := 0; l < b.Lanes; l++ {
				if mask&(1<<l) != 0 {
					reached[b.First+l] = append(reached[b.First+l], id)
				}
			}
		}
		ids := slices.Compact(slices.Sorted(slices.Values(b.Reached())))
		if len(ids) != len(b.Reached()) || len(ids) != nonzero || slices.ContainsFunc(ids, func(id int32) bool { return b.Mask(id) == 0 }) {
			listed.Add(1)
		}
		for l := 0; l < b.Lanes; l++ {
			levels[b.First+l] = b.LevelSizes(l, nil)
		}
	})
	if err != nil {
		return err
	}
	if listed.Load() != 0 {
		return fmt.Errorf("%d batches list reached ids other than the nonzero masks", listed.Load())
	}
	for i, root := range roots {
		res, err := BFS(g, root, ref)
		if err != nil {
			return err
		}
		if !slices.Equal(levels[i], res.LevelSizes()) {
			return fmt.Errorf("root %d %v: lane levels %v, BFS %v", i, root, levels[i], res.LevelSizes())
		}
		var want []int32
		res.Visit(func(tn egraph.TemporalNode, _ int) bool {
			want = append(want, int32(g.TemporalNodeID(tn)))
			return true
		})
		if !slices.Equal(reached[i], want) {
			return fmt.Errorf("root %d %v: lane reaches %v, BFS %v", i, root, reached[i], want)
		}
	}
	return nil
}

// laneRoots repeats g's active temporal nodes past two batches and adds
// a few random ones, so a sweep runs at least three batches, the last
// partial, with duplicate roots.
func laneRoots(rng *rand.Rand, g *egraph.IntEvolvingGraph) []egraph.TemporalNode {
	active := g.ActiveTemporalNodes()
	var roots []egraph.TemporalNode
	for len(roots) <= 2*laneWidth {
		roots = append(roots, active...)
	}
	for extra := rng.Intn(8); extra > 0 || len(roots)%laneWidth == 0; extra-- {
		roots = append(roots, active[rng.Intn(len(active))])
	}
	return roots
}

// Every lane must equal BFS from its root under every option
// combination and worker count.
func TestLaneSweepMatchesBFS(t *testing.T) {
	f := func(seed int64, directed, backward, reverse bool, workerSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		roots := laneRoots(rng, g)
		workers := 1 + int(workerSel%6)
		for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
			opts := Options{Mode: mode, ReverseEdges: reverse}
			if backward {
				opts.Direction = Backward
			}
			if err := checkLaneSweep(g, roots, opts, opts, workers); err != nil {
				t.Logf("seed %d %+v workers %d: %v", seed, opts, workers, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLaneSweepRejectsInactiveRoot(t *testing.T) {
	g := egraph.Figure1Graph()
	err := LaneSweep(g, []egraph.TemporalNode{tn(0, 0), tn(2, 0)}, Options{}, 0,
		func(*LaneBatch) { t.Error("fn called despite invalid root") })
	if err == nil {
		t.Fatal("inactive root accepted")
	}
}

// An all-sources sweep of egmark's hot-read graph examines at most 0.4×
// the arcs, stamps and words its per-root searches do.
func TestLaneSweepWork(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := gen.Random(gen.RandomConfig{Nodes: 500, Stamps: 8, Edges: 5000, Directed: true, Seed: seed})
		roots := g.ActiveTemporalNodes()
		for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
			opts := Options{Mode: mode}
			perRoot := 0
			for _, root := range roots {
				res, err := BFS(g, root, opts)
				if err != nil {
					t.Fatal(err)
				}
				perRoot += res.work
			}
			var lanes atomic.Int64
			if err := LaneSweep(g, roots, opts, 0, func(b *LaneBatch) { lanes.Add(int64(b.work)) }); err != nil {
				t.Fatal(err)
			}
			ratio := float64(lanes.Load()) / float64(perRoot)
			t.Logf("seed %d mode %v: lane work %d, per-root work %d (%.2fx)", seed, mode, lanes.Load(), perRoot, ratio)
			if ratio > 0.4 {
				t.Errorf("seed %d mode %v: lane sweep work is %.2fx the per-root searches', want ≤ 0.4x", seed, mode, ratio)
			}
		}
	}
}
