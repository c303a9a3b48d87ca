package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
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

// Property: the diameter is the largest eccentricity of one BFS per
// active root, in both causal modes.
func TestTemporalDiameterMatchesBFS(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
			want := 0
			for _, root := range g.ActiveTemporalNodes() {
				res, err := BFS(g, root, Options{Mode: mode})
				if err != nil {
					return false
				}
				want = max(want, res.MaxDist())
			}
			if TemporalDiameter(g, mode) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEarliestArrivalFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	arr, err := EarliestArrival(g, tn(0, 0), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	// From (1,t1): node 1 at t1 (itself), node 2 at t1, node 3 at t2.
	want := []int32{0, 0, 1}
	for v, w := range want {
		if arr[v] != w {
			t.Fatalf("arrival = %v, want %v", arr, want)
		}
	}
	// From (1,t2): node 2 never reached.
	arr2, err := EarliestArrival(g, tn(0, 1), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if arr2[1] != -1 {
		t.Fatalf("node 2 arrival = %d, want -1", arr2[1])
	}
	if arr2[2] != 1 {
		t.Fatalf("node 3 arrival = %d, want 1", arr2[2])
	}
	if _, err := EarliestArrival(g, tn(2, 0), egraph.CausalAllPairs); err == nil {
		t.Fatal("inactive root should fail")
	}
}

// Property: earliest arrival is monotone under edge addition (adding
// edges can only make arrivals earlier or equal).
func TestEarliestArrivalMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b1 := egraph.NewBuilder(true)
		b2 := egraph.NewBuilder(true)
		n := 3 + rng.Intn(6)
		stamps := 2 + rng.Intn(3)
		b1.AddEdge(0, 1, 1)
		b2.AddEdge(0, 1, 1)
		for e := 0; e < 2*n; e++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			ts := int64(1 + rng.Intn(stamps))
			b1.AddEdge(u, v, ts)
			b2.AddEdge(u, v, ts)
		}
		// b2 gets extra edges.
		for e := 0; e < n; e++ {
			b2.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(stamps)))
		}
		g1, g2 := b1.Build(), b2.Build()
		if g1.NumStamps() != g2.NumStamps() {
			return true // stamp sets differ; skip
		}
		a1, err := EarliestArrival(g1, tn(0, 0), egraph.CausalAllPairs)
		if err != nil {
			return true
		}
		a2, err := EarliestArrival(g2, tn(0, 0), egraph.CausalAllPairs)
		if err != nil {
			return true
		}
		for v := 0; v < g1.NumNodes(); v++ {
			if a1[v] >= 0 && (a2[v] < 0 || a2[v] > a1[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
