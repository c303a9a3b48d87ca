package egraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnfoldFigure1Structure(t *testing.T) {
	g := Figure1Graph()
	u := g.Unfold(CausalAllPairs)
	// Paper: V has 6 active temporal nodes in stamp-major order.
	want := []TemporalNode{
		{0, 0}, {1, 0}, // (1,t1), (2,t1)
		{0, 1}, {2, 1}, // (1,t2), (3,t2)
		{1, 2}, {2, 2}, // (2,t3), (3,t3)
	}
	if len(u.Order) != len(want) {
		t.Fatalf("Order = %v, want %v", u.Order, want)
	}
	for i := range want {
		if u.Order[i] != want[i] {
			t.Fatalf("Order = %v, want %v", u.Order, want)
		}
	}
	// |E| = |Ẽ| + |E′| = 3 + 3 (paper's listed sets, with the corrected
	// causal edge ((2,t1),(2,t3))).
	if len(u.Graph.adj) != 6 {
		t.Fatalf("arcs = %d, want 6", len(u.Graph.adj))
	}
	arcWant := map[[2]TemporalNode]bool{
		{{0, 0}, {1, 0}}: true, // static (1,t1)→(2,t1)
		{{0, 1}, {2, 1}}: true, // static (1,t2)→(3,t2)
		{{1, 2}, {2, 2}}: true, // static (2,t3)→(3,t3)
		{{0, 0}, {0, 1}}: true, // causal (1,t1)→(1,t2)
		{{1, 0}, {1, 2}}: true, // causal (2,t1)→(2,t3) [paper typo corrected]
		{{2, 1}, {2, 2}}: true, // causal (3,t2)→(3,t3)
	}
	seen := 0
	for fromID, from := range u.Order {
		for _, toID := range u.Graph.Neighbors(int32(fromID)) {
			key := [2]TemporalNode{from, u.Order[toID]}
			if !arcWant[key] {
				t.Fatalf("unexpected arc %v→%v", key[0], key[1])
			}
			seen++
		}
	}
	if seen != len(arcWant) {
		t.Fatalf("saw %d arcs, want %d", seen, len(arcWant))
	}
}

func TestUnfoldIDOf(t *testing.T) {
	g := Figure1Graph()
	u := g.Unfold(CausalAllPairs)
	if u.IDOf(TemporalNode{0, 0}) != 0 {
		t.Fatal("IDOf (1,t1) != 0")
	}
	if u.IDOf(TemporalNode{2, 0}) != -1 {
		t.Fatal("inactive temporal node should map to -1")
	}
}

func TestUnfoldConsecutiveSmaller(t *testing.T) {
	b := NewBuilder(true)
	for ts := int64(1); ts <= 5; ts++ {
		b.AddEdge(0, 1, ts)
	}
	g := b.Build()
	all := g.Unfold(CausalAllPairs)
	cons := g.Unfold(CausalConsecutive)
	if len(all.Graph.adj) <= len(cons.Graph.adj) {
		t.Fatalf("all-pairs arcs %d should exceed consecutive %d",
			len(all.Graph.adj), len(cons.Graph.adj))
	}
	if len(all.Order) != len(cons.Order) {
		t.Fatal("causal mode must not change the active node set")
	}
}

func TestStaticGraphBFS(t *testing.T) {
	// 0→1→2, 3 isolated.
	g := NewStaticGraph(4, [][2]int32{{0, 1}, {1, 2}})
	dist := g.BFS(0)
	want := []int32{0, 1, 2, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
	if g.NumNodes() != 4 || len(g.adj) != 2 {
		t.Fatal("static graph dims wrong")
	}
}

func TestStaticGraphBFSCycle(t *testing.T) {
	g := NewStaticGraph(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	dist := g.BFS(1)
	if dist[1] != 0 || dist[2] != 1 || dist[0] != 2 {
		t.Fatalf("dist = %v", dist)
	}
}

// RandomGraph builds a random evolving graph for property tests shared
// across packages.
func RandomGraph(rng *rand.Rand, directed bool) *IntEvolvingGraph {
	b := NewBuilder(directed)
	n := 2 + rng.Intn(8)
	stamps := 1 + rng.Intn(5)
	edges := rng.Intn(3 * n)
	for e := 0; e < edges; e++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		ts := int64(1 + rng.Intn(stamps))
		b.AddEdge(u, v, ts)
	}
	// Guarantee at least one edge so the graph is non-trivial.
	b.AddEdge(0, 1, 1)
	return b.Build()
}

// Property: the unfolding's arc count equals EdgeCount and its node
// count equals NumActiveNodes, in both modes and directions.
func TestUnfoldCountsConsistent(t *testing.T) {
	f := func(seed int64, directed, consecutive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGraph(rng, directed)
		mode := CausalAllPairs
		if consecutive {
			mode = CausalConsecutive
		}
		u := g.Unfold(mode)
		if u.Graph.NumNodes() != g.NumActiveNodes() {
			return false
		}
		return len(u.Graph.adj) == g.EdgeCount(mode)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every unfolded arc goes forward in time, and same-stamp arcs
// correspond to static edges (upper-triangular structure of A_n).
func TestUnfoldArcsRespectTime(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGraph(rng, directed)
		u := g.Unfold(CausalAllPairs)
		for fromID := range u.Order {
			from := u.Order[fromID]
			for _, toID := range u.Graph.Neighbors(int32(fromID)) {
				to := u.Order[toID]
				if to.Stamp < from.Stamp {
					return false // backward-in-time arc
				}
				if to.Stamp == from.Stamp {
					if from.Node == to.Node {
						return false // same-stamp self arc
					}
					if !g.HasEdge(from.Node, to.Node, from.Stamp) {
						return false // same-stamp arc with no static edge
					}
				} else if from.Node != to.Node {
					return false // cross-stamp arc must be causal
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
