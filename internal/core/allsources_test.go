package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
	"repro/internal/gen"
)

func TestAllSourcesBFSFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	stats := AllSourcesBFS(g, egraph.CausalAllPairs, 4)
	if len(stats) != 6 {
		t.Fatalf("stats for %d sources, want 6", len(stats))
	}
	// First source in unfolding order is (1,t1) with reach 6, ecc 3.
	if stats[0].Root != tn(0, 0) || stats[0].Reached != 6 || stats[0].Eccentricity != 3 {
		t.Fatalf("stats[0] = %+v", stats[0])
	}
	// (3,t3) is a sink: reach 1, ecc 0, closeness 0.
	last := stats[len(stats)-1]
	if last.Root != tn(2, 2) || last.Reached != 1 || last.Closeness != 0 {
		t.Fatalf("sink stats = %+v", last)
	}
}

// AllSourcesBFS writes each source's stats from concurrent LaneSweep
// callbacks, one batch of 64 roots each: on a graph with several
// batches, every source must still agree with one BFS from its root,
// for one worker and for GOMAXPROCS workers.
func TestAllSourcesBFSManyBatches(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := gen.Random(gen.RandomConfig{Nodes: 120, Stamps: 4, Edges: 500, Directed: directed, Seed: 5})
		active := g.ActiveTemporalNodes()
		if len(active) <= 2*laneWidth {
			t.Fatalf("%d active temporal nodes, want more than %d", len(active), 2*laneWidth)
		}
		for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
			for _, workers := range []int{1, 0} {
				stats := AllSourcesBFS(g, mode, workers)
				for i, root := range active {
					res, err := BFS(g, root, Options{Mode: mode})
					if err != nil {
						t.Fatal(err)
					}
					if st := stats[i]; st.Root != root || st.Reached != res.NumReached() || st.Eccentricity != res.MaxDist() {
						t.Fatalf("directed=%v %v workers=%d: stats[%d] = %+v, BFS from %v reached %d, eccentricity %d",
							directed, mode, workers, i, st, root, res.NumReached(), res.MaxDist())
					}
				}
			}
		}
	}
}

// Property: the all-sources lane sweep agrees with per-source BFS
// for any worker count, in unfolding order, with closeness within
// rounding of the sum over reached nodes.
func TestAllSourcesBFSMatchesSequential(t *testing.T) {
	f := func(seed int64, directed bool, workerSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		workers := 1 + int(workerSel%6)
		stats := AllSourcesBFS(g, egraph.CausalAllPairs, workers)
		u := g.Unfold(egraph.CausalAllPairs)
		if len(stats) != len(u.Order) {
			return false
		}
		for i, root := range u.Order {
			res, err := BFS(g, root, Options{})
			if err != nil {
				return false
			}
			closeness := 0.0
			res.Visit(func(_ egraph.TemporalNode, d int) bool {
				if d > 0 {
					closeness += 1 / float64(d)
				}
				return true
			})
			if stats[i].Root != root || stats[i].Reached != res.NumReached() ||
				stats[i].Eccentricity != res.MaxDist() || math.Abs(stats[i].Closeness-closeness) > 1e-12*closeness {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
