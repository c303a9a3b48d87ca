package gen

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/egraph"
)

func TestRandomDeterministic(t *testing.T) {
	cfg := RandomConfig{Nodes: 50, Stamps: 5, Edges: 200, Directed: true, Seed: 7}
	a := Random(cfg)
	b := Random(cfg)
	if a.StaticEdgeCount() != b.StaticEdgeCount() || a.NumActiveNodes() != b.NumActiveNodes() {
		t.Fatal("same seed produced different graphs")
	}
	c := Random(RandomConfig{Nodes: 50, Stamps: 5, Edges: 200, Directed: true, Seed: 8})
	if a.StaticEdgeCount() == c.StaticEdgeCount() && a.NumActiveNodes() == c.NumActiveNodes() &&
		a.CausalEdgeCount(egraph.CausalAllPairs) == c.CausalEdgeCount(egraph.CausalAllPairs) {
		t.Log("different seeds produced identical summary stats (possible but unlikely)")
	}
}

func TestRandomShape(t *testing.T) {
	g := Random(RandomConfig{Nodes: 100, Stamps: 10, Edges: 500, Directed: true, Seed: 1})
	if g.NumStamps() > 10 || g.NumStamps() < 1 {
		t.Fatalf("stamps = %d", g.NumStamps())
	}
	if g.NumNodes() > 100 {
		t.Fatalf("nodes = %d > 100", g.NumNodes())
	}
	// Duplicates collapse, so ≤ requested.
	if g.StaticEdgeCount() > 500 {
		t.Fatalf("|Ẽ| = %d > 500", g.StaticEdgeCount())
	}
	if g.StaticEdgeCount() < 400 {
		t.Fatalf("|Ẽ| = %d, too many collisions for 100×100×10 space", g.StaticEdgeCount())
	}
}

func TestRandomSeriesPrefixProperty(t *testing.T) {
	counts := []int{100, 200, 400}
	series := RandomSeries(60, 6, counts, true, 3)
	if len(series) != 3 {
		t.Fatalf("series length = %d", len(series))
	}
	// Edge sets grow: every edge of series[k] appears in series[k+1].
	for k := 0; k+1 < len(series); k++ {
		small, big := series[k], series[k+1]
		if small.StaticEdgeCount() > big.StaticEdgeCount() {
			t.Fatalf("series shrank: %d > %d", small.StaticEdgeCount(), big.StaticEdgeCount())
		}
		for ts := 0; ts < small.NumStamps(); ts++ {
			label := small.TimeLabel(ts)
			bs := big.StampOf(label)
			if bs < 0 {
				t.Fatalf("stamp label %d missing from larger graph", label)
			}
			small.VisitEdges(int32(ts), func(u, v int32, _ float64) bool {
				if !big.HasEdge(u, v, int32(bs)) {
					t.Fatalf("edge (%d,%d)@%d missing from larger graph", u, v, label)
				}
				return true
			})
		}
	}
}

func TestRandomSeriesValidation(t *testing.T) {
	if RandomSeries(10, 2, nil, true, 1) != nil {
		t.Fatal("empty counts should give nil")
	}
	for _, tc := range []struct {
		counts []int
		want   string
	}{
		{[]int{5, 3}, "gen: RandomSeries edge counts must be non-decreasing"},
		{[]int{-1, 5}, "gen: bad parameters"},
		{[]int{0, -1}, "gen: bad parameters"},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			RandomSeries(10, 2, tc.counts, true, 1)
			return
		}()
		if !strings.HasPrefix(msg, tc.want) {
			t.Errorf("RandomSeries(%v) panicked with %q, want %q", tc.counts, msg, tc.want)
		}
	}
}

func TestGNP(t *testing.T) {
	g := GNP(20, 3, 0.2, false, 5)
	if g.NumStamps() != 3 {
		t.Fatalf("stamps = %d, want 3", g.NumStamps())
	}
	// Expected edges per stamp ≈ p·C(20,2) = 38; allow wide tolerance.
	for ts := 0; ts < 3; ts++ {
		e := g.SnapshotEdgeCount(ts)
		if e < 10 || e > 80 {
			t.Fatalf("snapshot %d has %d edges, outside [10,80]", ts, e)
		}
	}
	gd := GNP(20, 2, 1.0, true, 5)
	if gd.SnapshotEdgeCount(0) != 20*19 {
		t.Fatalf("dense directed GNP edges = %d, want 380", gd.SnapshotEdgeCount(0))
	}
}

func TestGNPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GNP(10, 2, 1.5, true, 1)
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(200, 8, 2, 9)
	if g.Directed() {
		t.Fatal("PA graph should be undirected")
	}
	if g.NumStamps() < 2 {
		t.Fatalf("stamps = %d, want several", g.NumStamps())
	}
	// Heavy tail: max total degree should well exceed the mean.
	deg := make(map[int32]int)
	for ts := int32(0); ts < int32(g.NumStamps()); ts++ {
		g.VisitEdges(ts, func(u, v int32, _ float64) bool {
			deg[u]++
			deg[v]++
			return true
		})
	}
	maxDeg, sum := 0, 0
	for _, d := range deg {
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(len(deg))
	if float64(maxDeg) < 3*mean {
		t.Fatalf("max degree %d not heavy-tailed vs mean %.1f", maxDeg, mean)
	}
}

func TestCitationNetwork(t *testing.T) {
	cfg := DefaultCitationConfig()
	g, firstPub := Citation(cfg)
	if !g.Directed() {
		t.Fatal("citation network must be directed")
	}
	if g.NumStamps() < 2 {
		t.Fatalf("stamps = %d, want several", g.NumStamps())
	}
	if g.StaticEdgeCount() < cfg.Authors {
		t.Fatalf("|Ẽ| = %d, suspiciously small", g.StaticEdgeCount())
	}
	if len(firstPub) != cfg.Authors {
		t.Fatalf("firstPub length = %d", len(firstPub))
	}
	// Citations must point backward or within the same stamp: a cited
	// author's first publication is never later than the citing stamp.
	for ts := int32(0); ts < int32(g.NumStamps()); ts++ {
		g.VisitEdges(ts, func(citer, cited int32, _ float64) bool {
			if firstPub[cited] < 0 {
				t.Fatalf("author %d cited but never published", cited)
			}
			if int64(firstPub[cited])+1 > g.TimeLabel(int(ts)) {
				t.Fatalf("author %d cited at %d before first publication %d",
					cited, g.TimeLabel(int(ts)), firstPub[cited])
			}
			return true
		})
	}
	// Determinism.
	g2, _ := Citation(cfg)
	if g2.StaticEdgeCount() != g.StaticEdgeCount() {
		t.Fatal("citation generator not deterministic")
	}
}

func TestCitationInfluencePropagates(t *testing.T) {
	g, _ := Citation(DefaultCitationConfig())
	// Pick an early active author; their influence set (backward BFS
	// over citations: who cites them transitively) should be non-trivial.
	act := g.ActiveNodes(0)
	a := act.NextSet(0)
	if a < 0 {
		t.Skip("no active author at first stamp")
	}
	root := egraph.TemporalNode{Node: int32(a), Stamp: 0}
	// Edges are citer→cited, so influence flows against edges, forward
	// in time: Forward + ReverseEdges.
	res, err := core.BFS(g, root, core.Options{Direction: core.Forward, ReverseEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReached() < 2 {
		t.Fatalf("early author influences %d temporal nodes, want ≥ 2", res.NumReached())
	}
}

func TestCitationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Citation(CitationConfig{Authors: 1, Stamps: 1, PubProb: 0.5, CitesPerPaper: 1})
}

func TestRandomValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Random(RandomConfig{Nodes: 1, Stamps: 1, Edges: 5})
}

func TestPreferentialAttachmentValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PreferentialAttachment(1, 1, 1, 1)
}
