package egraph

import (
	"testing"
)

func TestFigure1Activity(t *testing.T) {
	g := Figure1Graph()
	if g.NumNodes() != 3 || g.NumStamps() != 3 {
		t.Fatalf("dims = (%d nodes, %d stamps)", g.NumNodes(), g.NumStamps())
	}
	if !g.Directed() {
		t.Fatal("Figure 1 graph is directed")
	}
	// Paper: (1,t1), (2,t1) active; (3,t1) inactive; (2,t2) inactive.
	type q struct {
		v, s   int32
		active bool
	}
	for _, tc := range []q{
		{0, 0, true}, {1, 0, true}, {2, 0, false},
		{0, 1, true}, {1, 1, false}, {2, 1, true},
		{0, 2, false}, {1, 2, true}, {2, 2, true},
	} {
		if got := g.IsActive(tc.v, tc.s); got != tc.active {
			t.Errorf("IsActive(%d,t%d) = %v, want %v", tc.v+1, tc.s+1, got, tc.active)
		}
	}
	if g.NumActiveNodes() != 6 {
		t.Fatalf("|V| = %d, want 6", g.NumActiveNodes())
	}
	if g.StaticEdgeCount() != 3 {
		t.Fatalf("|Ẽ| = %d, want 3", g.StaticEdgeCount())
	}
	if g.CausalEdgeCount(CausalAllPairs) != 3 {
		t.Fatalf("|E′| = %d, want 3", g.CausalEdgeCount(CausalAllPairs))
	}
	if g.EdgeCount(CausalAllPairs) != 6 {
		t.Fatalf("|E| = %d, want 6", g.EdgeCount(CausalAllPairs))
	}
}

func TestTimeLabels(t *testing.T) {
	b := NewBuilder(true)
	b.AddEdge(0, 1, 100)
	b.AddEdge(1, 2, 50)
	b.AddEdge(2, 3, 100)
	g := b.Build()
	if g.NumStamps() != 2 {
		t.Fatalf("stamps = %d, want 2", g.NumStamps())
	}
	if g.TimeLabel(0) != 50 || g.TimeLabel(1) != 100 {
		t.Fatalf("labels = %v", g.TimeLabels())
	}
	if g.StampOf(100) != 1 || g.StampOf(50) != 0 || g.StampOf(75) != -1 {
		t.Fatal("StampOf wrong")
	}
	// Edge at the later *label* but added first must land at stamp 1.
	if !g.HasEdge(0, 1, 1) || !g.HasEdge(1, 2, 0) {
		t.Fatal("edges assigned to wrong stamps")
	}
}

func TestActiveStampsAndNavigation(t *testing.T) {
	g := Figure1Graph()
	// Node 0 (paper's 1) active at stamps 0, 1.
	st := g.ActiveStamps(0)
	if len(st) != 2 || st[0] != 0 || st[1] != 1 {
		t.Fatalf("ActiveStamps(0) = %v", st)
	}
	if g.NextActiveStamp(0, 0) != 1 || g.NextActiveStamp(0, 1) != -1 {
		t.Fatal("NextActiveStamp wrong")
	}
	if g.PrevActiveStamp(0, 1) != 0 || g.PrevActiveStamp(0, 0) != -1 {
		t.Fatal("PrevActiveStamp wrong")
	}
	// Node 1 (paper's 2): active at stamps 0 and 2 — next after 0 skips 1.
	if g.NextActiveStamp(1, 0) != 2 {
		t.Fatalf("NextActiveStamp(1,0) = %d, want 2", g.NextActiveStamp(1, 0))
	}
}

func TestNeighborsDirected(t *testing.T) {
	g := Figure1Graph()
	out := g.OutNeighbors(0, 0)
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("OutNeighbors(1,t1) = %v", out)
	}
	if len(g.OutNeighbors(1, 0)) != 0 {
		t.Fatal("directed graph should have no reverse out-edge")
	}
	in := g.InNeighbors(1, 0)
	if len(in) != 1 || in[0] != 0 {
		t.Fatalf("InNeighbors(2,t1) = %v", in)
	}
	if g.OutDegree(0, 0) != 1 || g.OutDegree(2, 0) != 0 {
		t.Fatal("OutDegree wrong")
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	b := NewBuilder(false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 1) // duplicate in canonical form
	b.AddEdge(1, 2, 1)
	g := b.Build()
	if g.StaticEdgeCount() != 2 {
		t.Fatalf("|Ẽ| = %d, want 2 (duplicate collapsed)", g.StaticEdgeCount())
	}
	if len(g.OutNeighbors(1, 0)) != 2 {
		t.Fatalf("undirected node 1 should see both neighbours, got %v", g.OutNeighbors(1, 0))
	}
	if len(g.OutNeighbors(0, 0)) != 1 || g.OutNeighbors(0, 0)[0] != 1 {
		t.Fatal("undirected reverse view missing")
	}
	// EdgeCount doubles undirected static edges (two arcs in G).
	if g.EdgeCount(CausalAllPairs) != 4 {
		t.Fatalf("|E| = %d, want 4", g.EdgeCount(CausalAllPairs))
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(true)
	b.AddEdge(0, 0, 1)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.StaticEdgeCount() != 1 {
		t.Fatalf("|Ẽ| = %d, want 1", g.StaticEdgeCount())
	}
	// A node with only a self-loop is inactive (Def. 3).
	b2 := NewBuilder(true)
	b2.AddEdge(2, 2, 1)
	b2.AddEdge(0, 1, 1)
	g2 := b2.Build()
	if g2.IsActive(2, 0) {
		t.Fatal("self-loop-only node reported active")
	}
}

func TestDuplicateEdgesCollapse(t *testing.T) {
	b := NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 2)
	g := b.Build()
	if g.StaticEdgeCount() != 2 {
		t.Fatalf("|Ẽ| = %d, want 2", g.StaticEdgeCount())
	}
	if g.SnapshotEdgeCount(0) != 1 || g.SnapshotEdgeCount(1) != 1 {
		t.Fatal("per-snapshot counts wrong")
	}
}

func TestWeightedEdges(t *testing.T) {
	b := NewWeightedBuilder(true)
	b.AddWeightedEdge(0, 1, 1, 2.5)
	b.AddWeightedEdge(0, 2, 1, 7)
	g := b.Build()
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	adj := g.OutNeighbors(0, 0)
	w := g.OutWeights(0, 0)
	if len(adj) != 2 || len(w) != 2 {
		t.Fatalf("adj=%v w=%v", adj, w)
	}
	for i, v := range adj {
		want := map[int32]float64{1: 2.5, 2: 7}[v]
		if w[i] != want {
			t.Fatalf("weight of edge to %d = %g, want %g", v, w[i], want)
		}
	}
	if g2 := Figure1Graph(); g2.OutWeights(0, 0) != nil {
		t.Fatal("unweighted graph should return nil weights")
	}
}

func TestVisitEdges(t *testing.T) {
	g := Figure1Graph()
	var got [][2]int32
	g.VisitEdges(0, func(u, v int32, w float64) bool {
		if w != 1 {
			t.Fatalf("weight = %g, want 1", w)
		}
		got = append(got, [2]int32{u, v})
		return true
	})
	if len(got) != 1 || got[0] != [2]int32{0, 1} {
		t.Fatalf("VisitEdges(t1) = %v", got)
	}
	// Early stop.
	count := 0
	b := NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g2 := b.Build()
	g2.VisitEdges(0, func(u, v int32, w float64) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d edges", count)
	}
	// Undirected edges reported once with u ≤ v.
	bu := NewBuilder(false)
	bu.AddEdge(2, 0, 5)
	gu := bu.Build()
	n := 0
	gu.VisitEdges(0, func(u, v int32, w float64) bool {
		n++
		if u > v {
			t.Fatalf("undirected edge reported as (%d,%d)", u, v)
		}
		return true
	})
	if n != 1 {
		t.Fatalf("undirected edge reported %d times", n)
	}
}

func TestCausalEdgeCountModes(t *testing.T) {
	// One node active at 4 stamps: all-pairs C(4,2)=6, consecutive 3.
	b := NewBuilder(true)
	for ts := int64(1); ts <= 4; ts++ {
		b.AddEdge(0, 1, ts)
	}
	g := b.Build()
	// Both nodes 0 and 1 active at all 4 stamps.
	if got := g.CausalEdgeCount(CausalAllPairs); got != 12 {
		t.Fatalf("all-pairs |E′| = %d, want 12", got)
	}
	if got := g.CausalEdgeCount(CausalConsecutive); got != 6 {
		t.Fatalf("consecutive |E′| = %d, want 6", got)
	}
}

func TestTemporalNodeIDRoundTrip(t *testing.T) {
	g := Figure1Graph()
	for s := int32(0); s < 3; s++ {
		for v := int32(0); v < 3; v++ {
			tn := TemporalNode{Node: v, Stamp: s}
			if got := g.TemporalNodeFromID(g.TemporalNodeID(tn)); got != tn {
				t.Fatalf("round trip %v -> %v", tn, got)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(true).Build()
	if g.NumNodes() != 0 || g.NumStamps() != 0 || g.NumActiveNodes() != 0 {
		t.Fatal("empty build not empty")
	}
	if g.StaticEdgeCount() != 0 || g.CausalEdgeCount(CausalAllPairs) != 0 {
		t.Fatal("empty graph has edges")
	}
}

func TestNegativeNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(true).AddEdge(-1, 0, 1)
}

func TestCausalModeString(t *testing.T) {
	if CausalAllPairs.String() != "all-pairs" || CausalConsecutive.String() != "consecutive" {
		t.Fatal("CausalMode strings wrong")
	}
	if CausalMode(9).String() != "CausalMode(9)" {
		t.Fatal("unknown CausalMode string wrong")
	}
}

func TestTemporalNodeString(t *testing.T) {
	tn := TemporalNode{Node: 2, Stamp: 0}
	if tn.String() != "(2,t1)" {
		t.Fatalf("String = %q", tn.String())
	}
}

func TestIntroGameGraph(t *testing.T) {
	g := IntroGameGraph(false)
	if !g.HasEdge(0, 1, 0) || !g.HasEdge(1, 2, 1) {
		t.Fatal("intro game graph edges wrong")
	}
	gs := IntroGameGraph(true)
	if !gs.HasEdge(1, 2, 0) || !gs.HasEdge(0, 1, 1) {
		t.Fatal("swapped intro game graph edges wrong")
	}
}
