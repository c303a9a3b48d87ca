package evolving_test

import (
	"bytes"
	"testing"

	evolving "repro"
)

// The extension surface: future-work sparse algebraic BFS,
// connectivity, and ranking.
func TestPublicAPIExtensions(t *testing.T) {
	g := evolving.Figure1Graph()
	root := evolving.TemporalNode{Node: 0, Stamp: 0}
	target := evolving.TemporalNode{Node: 2, Stamp: 2}

	sparse, err := evolving.SparseABFS(g, root, evolving.CausalAllPairs)
	if err != nil || sparse[target] != 3 {
		t.Fatalf("SparseABFS = %v, %v", sparse, err)
	}

	weak := evolving.WeakComponents(g, evolving.CausalAllPairs)
	if len(weak) != 1 || len(weak[0]) != 6 {
		t.Fatalf("WeakComponents = %v", weak)
	}
	if sccs := evolving.StrongComponents(g, 2); len(sccs) != 0 {
		t.Fatalf("StrongComponents = %v, want none (DAG)", sccs)
	}
	out, err := evolving.OutComponent(g, root, evolving.CausalAllPairs)
	if err != nil || len(out) != 6 {
		t.Fatalf("OutComponent = %v", out)
	}

	pr, err := evolving.EvolvingPageRank(g, evolving.PageRankOptions{})
	if err != nil || len(pr.Scores) != 3 {
		t.Fatal("EvolvingPageRank wrong")
	}
	katz, err := evolving.TemporalKatz(g, evolving.KatzOptions{Alpha: 0.5})
	if err != nil || len(katz) != 9 {
		t.Fatal("TemporalKatz wrong")
	}
}

func TestPublicAPIGraphMethods(t *testing.T) {
	g := evolving.Figure1Graph()
	if g.Slice(2, 3).NumStamps() != 2 {
		t.Fatal("Slice wrong")
	}
	if g.Flatten().NumStamps() != 1 {
		t.Fatal("Flatten wrong")
	}
	if g.InducedSubgraph([]int32{0, 1}).StaticEdgeCount() != 1 {
		t.Fatal("InducedSubgraph wrong")
	}
	s := g.Stats()
	if s.ActiveNodes != 6 {
		t.Fatalf("Stats = %+v", s)
	}
	if g.TimeReverse().NumStamps() != 3 {
		t.Fatal("TimeReverse wrong")
	}
	u := g.Unfold(evolving.CausalAllPairs)
	if u.Graph.NumArcs() != 6 {
		t.Fatal("Unfold wrong")
	}
}

func TestPublicAPITraversalExtensions(t *testing.T) {
	g := evolving.Figure1Graph()
	root := evolving.TemporalNode{Node: 0, Stamp: 0}

	count := 0
	err := evolving.DFS(g, root, evolving.Options{}, func(n evolving.TemporalNode, ev evolving.DFSEvent) bool {
		if ev == evolving.Discover {
			count++
		}
		return true
	})
	if err != nil || count != 6 {
		t.Fatalf("DFS discovered %d, err %v", count, err)
	}

	order, err := evolving.TopologicalOrder(g, evolving.CausalAllPairs)
	if err != nil || len(order) != 6 {
		t.Fatalf("TopologicalOrder = %v, %v", order, err)
	}
	if !evolving.IsTemporalDAG(g) {
		t.Fatal("Fig. 1 should be a temporal DAG")
	}

	c := evolving.TransitiveClosure(g, evolving.CausalAllPairs)
	if !c.Reaches(root, evolving.TemporalNode{Node: 2, Stamp: 2}) {
		t.Fatal("closure wrong")
	}
	if evolving.TemporalDiameter(g, evolving.CausalAllPairs) != 3 {
		t.Fatal("diameter wrong")
	}
}

func TestPublicAPIBinaryIO(t *testing.T) {
	g := evolving.Figure1Graph()
	var buf bytes.Buffer
	if err := evolving.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := evolving.ReadBinary(&buf)
	if err != nil || g2.StaticEdgeCount() != 3 {
		t.Fatal("binary round trip wrong")
	}
}

func TestPublicAPIReachIndexAndEfficiency(t *testing.T) {
	g := evolving.Figure1Graph()
	idx, err := evolving.BuildReachIndex(g, evolving.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Reaches(evolving.TemporalNode{Node: 0, Stamp: 0}, evolving.TemporalNode{Node: 2, Stamp: 2}) {
		t.Fatal("reach index wrong")
	}
	st := evolving.GlobalEfficiency(g, evolving.CausalAllPairs)
	if st.Diameter != 3 {
		t.Fatalf("efficiency stats = %+v", st)
	}
	arr, err := evolving.EarliestArrival(g, evolving.TemporalNode{Node: 0, Stamp: 0}, evolving.CausalAllPairs)
	if err != nil || arr[2] != 1 {
		t.Fatalf("EarliestArrival = %v, %v", arr, err)
	}
	stats := evolving.AllSourcesBFS(g, evolving.CausalAllPairs, 2)
	if len(stats) != 6 {
		t.Fatal("AllSourcesBFS wrong")
	}
}
