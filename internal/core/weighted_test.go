package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
)

func TestWeightedMatchesBFSOnUnitWeights(t *testing.T) {
	f := func(seed int64, directed, consecutive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		mode := egraph.CausalAllPairs
		if consecutive {
			mode = egraph.CausalConsecutive
		}
		u := g.Unfold(mode)
		for _, root := range u.Order {
			bfs, err := BFS(g, root, Options{Mode: mode})
			if err != nil {
				return false
			}
			dij, err := WeightedShortestPaths(g, root, WeightedOptions{Mode: mode, CausalWeight: 1})
			if err != nil {
				return false
			}
			for _, node := range u.Order {
				bd := bfs.Dist(node)
				wd := dij.Dist(node)
				if bd < 0 {
					if !math.IsInf(wd, 1) {
						return false
					}
				} else if wd != float64(bd) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedPrefersCheapRoute(t *testing.T) {
	// Two routes 0→2 at one stamp: direct weight 10, via 1 weight 1+1.
	b := egraph.NewWeightedBuilder(true)
	b.AddWeightedEdge(0, 2, 1, 10)
	b.AddWeightedEdge(0, 1, 1, 1)
	b.AddWeightedEdge(1, 2, 1, 1)
	g := b.Build()
	res, err := WeightedShortestPaths(g, tn(0, 0), WeightedOptions{CausalWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist(tn(2, 0)) != 2 {
		t.Fatalf("dist = %g, want 2", res.Dist(tn(2, 0)))
	}
}

func TestWeightedFreeCausalHops(t *testing.T) {
	// CausalWeight 0 reproduces the dynamic-walk convention: waiting is
	// free, so the distance to a later stamp of the same node is 0.
	g := egraph.Figure1Graph()
	res, err := WeightedShortestPaths(g, tn(0, 0), WeightedOptions{CausalWeight: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist(tn(0, 1)) != 0 {
		t.Fatalf("free causal hop dist = %g, want 0", res.Dist(tn(0, 1)))
	}
	// (3,t3): hop to (1,t2) free, edge to (3,t2) costs 1, wait free = 1.
	if res.Dist(tn(2, 2)) != 1 {
		t.Fatalf("dist((3,t3)) = %g, want 1", res.Dist(tn(2, 2)))
	}
}

func TestWeightedUnreachable(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := WeightedShortestPaths(g, tn(2, 2), WeightedOptions{CausalWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached(tn(0, 0)) {
		t.Fatal("(1,t1) should be unreachable from (3,t3)")
	}
}

func TestWeightedErrors(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := WeightedShortestPaths(g, tn(2, 0), WeightedOptions{}); err == nil {
		t.Fatal("inactive root should fail")
	}
	if _, err := WeightedShortestPaths(g, tn(0, 0), WeightedOptions{CausalWeight: -1}); err != ErrNegativeWeight {
		t.Fatal("negative causal weight should fail")
	}
	b := egraph.NewWeightedBuilder(true)
	b.AddWeightedEdge(0, 1, 1, -5)
	gn := b.Build()
	if _, err := WeightedShortestPaths(gn, tn(0, 0), WeightedOptions{}); err != ErrNegativeWeight {
		t.Fatal("negative edge weight should fail")
	}
}
