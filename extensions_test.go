package evolving_test

import (
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
	s := g.Stats()
	if s.ActiveNodes != 6 {
		t.Fatalf("Stats = %+v", s)
	}
	u := g.Unfold(evolving.CausalAllPairs)
	arcs := 0
	for v := 0; v < u.Graph.NumNodes(); v++ {
		arcs += len(u.Graph.Neighbors(int32(v)))
	}
	if u.Graph.NumNodes() != 6 || arcs != 6 {
		t.Fatal("Unfold wrong")
	}
}

func TestPublicAPITraversalExtensions(t *testing.T) {
	g := evolving.Figure1Graph()
	order, err := evolving.TopologicalOrder(g, evolving.CausalAllPairs)
	if err != nil || len(order) != 6 {
		t.Fatalf("TopologicalOrder = %v, %v", order, err)
	}
	if !evolving.IsTemporalDAG(g) {
		t.Fatal("Fig. 1 should be a temporal DAG")
	}
}

func TestPublicAPIClosureAndEfficiency(t *testing.T) {
	g := evolving.Figure1Graph()
	st := evolving.GlobalEfficiencyOpts(g, evolving.MetricOptions{})
	if st.Diameter != 3 {
		t.Fatalf("efficiency stats = %+v", st)
	}
	stats := evolving.AllSourcesBFS(g, evolving.CausalAllPairs, 2)
	if len(stats) != 6 {
		t.Fatal("AllSourcesBFS wrong")
	}
}
