package egraph

import (
	"strings"
	"testing"
)

func TestStatsFigure1(t *testing.T) {
	g := Figure1Graph()
	s := g.Stats()
	if s.Nodes != 3 || s.Stamps != 3 || s.StaticEdges != 3 || s.ActiveNodes != 6 {
		t.Fatalf("stats = %+v", s)
	}
	if s.CausalAllPairs != 3 || s.CausalConsec != 3 {
		t.Fatalf("causal counts = %d/%d, want 3/3", s.CausalAllPairs, s.CausalConsec)
	}
	if s.MaxOutDegree != 1 {
		t.Fatalf("MaxOutDegree = %d, want 1", s.MaxOutDegree)
	}
	if s.EverActiveNodes != 3 || s.MaxActivity != 2 {
		t.Fatalf("activity stats wrong: %+v", s)
	}
	if s.MeanActivity != 2 {
		t.Fatalf("MeanActivity = %g, want 2", s.MeanActivity)
	}
	str := s.String()
	for _, want := range []string{"directed", "3 nodes", "static edges", "all-pairs"} {
		if !strings.Contains(str, want) {
			t.Fatalf("summary %q missing %q", str, want)
		}
	}
}

func TestStatsEdgesPerSnapshot(t *testing.T) {
	b := NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 2, 5)
	g := b.Build()
	s := g.Stats()
	if len(s.EdgesPerSnapshot) != 2 || s.EdgesPerSnapshot[0] != 2 || s.EdgesPerSnapshot[1] != 1 {
		t.Fatalf("EdgesPerSnapshot = %v", s.EdgesPerSnapshot)
	}
}
