package evolving_test

import (
	"bytes"
	"testing"

	evolving "repro"
)

// End-to-end smoke test of the public API: every entry point is exercised
// at least once against paper ground truth.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := evolving.Figure1Graph()
	root := evolving.TemporalNode{Node: 0, Stamp: 0}
	target := evolving.TemporalNode{Node: 2, Stamp: 2}

	res, err := evolving.BFS(g, root, evolving.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist(target) != 3 {
		t.Fatalf("BFS dist = %d, want 3", res.Dist(target))
	}

	multi, err := evolving.MultiSourceBFS(g, []evolving.TemporalNode{root}, evolving.Options{})
	if err != nil || multi.Dist(target) != 3 {
		t.Fatal("multi-source BFS disagrees")
	}

	ok, err := evolving.Reachable(g, root, target, evolving.CausalAllPairs)
	if err != nil || !ok {
		t.Fatal("Reachable wrong")
	}

	p, err := evolving.ShortestPath(g, root, target, evolving.CausalAllPairs)
	if err != nil || p.Hops() != 3 {
		t.Fatalf("ShortestPath = %v", p)
	}

	paths, err := evolving.EnumeratePaths(g, root, target, evolving.CausalAllPairs, 0)
	if err != nil || len(paths) != 2 {
		t.Fatalf("EnumeratePaths found %d, want 2", len(paths))
	}

	walks, err := evolving.CountWalks(g, root, target, evolving.CausalAllPairs, 3)
	if err != nil || walks != 2 {
		t.Fatalf("CountWalks = %d, want 2", walks)
	}

	nbs := evolving.ForwardNeighbors(g, root, evolving.CausalAllPairs)
	if len(nbs) != 2 {
		t.Fatalf("ForwardNeighbors = %v", nbs)
	}

	wres, err := evolving.WeightedShortestPaths(g, root, evolving.WeightedOptions{CausalWeight: 1})
	if err != nil || wres.Dist(target) != 3 {
		t.Fatal("weighted search disagrees")
	}

	reached, err := evolving.ABFS(g, root, evolving.CausalAllPairs)
	if err != nil || reached[target] != 3 {
		t.Fatal("ABFS disagrees")
	}
	dreached, err := evolving.DenseABFS(g, root, evolving.CausalAllPairs)
	if err != nil || dreached[target] != 3 {
		t.Fatal("DenseABFS disagrees")
	}

	if s := evolving.NaivePathSum(g, 2); s.At(0, 2) != 1 {
		t.Fatal("NaivePathSum should miscount as 1")
	}

	blk := evolving.BlockMatrix(g, evolving.CausalAllPairs)
	if blk.Dim() != 9 {
		t.Fatal("BlockMatrix dims wrong")
	}

	if d := evolving.TangTemporalDistance(g, root, 2); d != 2 {
		t.Fatalf("Tang distance = %d, want 2", d)
	}
	if d, err := evolving.DynamicWalkDistance(g, root, target, evolving.CausalAllPairs); err != nil || d != 1 {
		t.Fatalf("dynamic-walk distance = %d, want 1", d)
	}
	if c, err := evolving.TemporalClosenessOpts(g, root, evolving.MetricOptions{}); err != nil || c <= 0 {
		t.Fatal("closeness wrong")
	}
}

func TestPublicAPIGameAndGenerators(t *testing.T) {
	game := evolving.IntroGameGraph(false)
	ok, err := evolving.Reachable(game,
		evolving.TemporalNode{Node: 0, Stamp: 0},
		evolving.TemporalNode{Node: 2, Stamp: 1},
		evolving.CausalAllPairs)
	if err != nil || !ok {
		t.Fatal("intro game reachability wrong")
	}

	rg := evolving.Random(evolving.RandomConfig{Nodes: 30, Stamps: 4, Edges: 60, Directed: true, Seed: 1})
	if rg.StaticEdgeCount() == 0 {
		t.Fatal("Random produced empty graph")
	}
	series := evolving.RandomSeries(30, 4, []int{10, 20}, true, 1)
	if len(series) != 2 {
		t.Fatal("RandomSeries wrong")
	}
	if evolving.GNP(10, 2, 0.5, false, 1).NumStamps() != 2 {
		t.Fatal("GNP wrong")
	}
	if evolving.PreferentialAttachment(50, 4, 2, 1).StaticEdgeCount() == 0 {
		t.Fatal("PA wrong")
	}

	cg, firstPub := evolving.SyntheticCitation(evolving.DefaultCitationConfig())
	if len(firstPub) == 0 || cg.StaticEdgeCount() == 0 {
		t.Fatal("SyntheticCitation wrong")
	}
	an, err := evolving.NewCitationAnalyzer(cg, evolving.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := an.RankByInfluence(3)
	if err != nil || len(scores) != 3 {
		t.Fatal("RankByInfluence wrong")
	}
}

func TestPublicAPIIO(t *testing.T) {
	g := evolving.Figure1Graph()
	var buf bytes.Buffer
	if err := evolving.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := evolving.ReadEdgeList(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.StaticEdgeCount() != 3 {
		t.Fatal("edge-list round trip wrong")
	}
}
