package egio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
0 1 1

1 2 3
0 2 2
`
	g, err := ReadEdgeList(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStamps() != 3 || g.StaticEdgeCount() != 3 {
		t.Fatalf("stamps=%d edges=%d", g.NumStamps(), g.StaticEdgeCount())
	}
	if g.Weighted() {
		t.Fatal("unweighted input produced weighted graph")
	}
	if !g.HasEdge(0, 1, 0) || !g.HasEdge(0, 2, 1) || !g.HasEdge(1, 2, 2) {
		t.Fatal("edges wrong")
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 1 2.5\n1 2 1\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("weighted line should force weighted graph")
	}
	w := g.OutWeights(0, 0)
	if len(w) != 1 || w[0] != 2.5 {
		t.Fatalf("weights = %v", w)
	}
	// Unweighted lines default to 1.
	w2 := g.OutWeights(1, 0)
	if len(w2) != 1 || w2[0] != 1 {
		t.Fatalf("default weight = %v", w2)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{
		"0 1\n",       // too few fields
		"0 1 2 3 4\n", // too many fields
		"x 1 1\n",     // bad source
		"0 y 1\n",     // bad target
		"0 1 z\n",     // bad time
		"0 1 1 w\n",   // bad weight
		"-1 1 1\n",    // negative id
	} {
		if _, err := ReadEdgeList(strings.NewReader(bad), true); err == nil {
			t.Fatalf("input %q should fail", bad)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64, directed, weighted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var b *egraph.Builder
		if weighted {
			b = egraph.NewWeightedBuilder(directed)
		} else {
			b = egraph.NewBuilder(directed)
		}
		n := 2 + rng.Intn(8)
		for e := 0; e < rng.Intn(30); e++ {
			b.AddWeightedEdge(int32(rng.Intn(n)), int32(rng.Intn(n)),
				int64(1+rng.Intn(4)), float64(1+rng.Intn(5)))
		}
		b.AddWeightedEdge(0, 1, 1, 2)
		g := b.Build()

		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf, directed)
		if err != nil {
			return false
		}
		return graphsEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReadEdgeListNodeCeiling pins the node-id cap: one id past it is
// an error naming the line, not a multi-gigabyte allocation.
func TestReadEdgeListNodeCeiling(t *testing.T) {
	for _, bad := range []string{"16777216 0 1\n", "0 1 1\n0 99999391 2\n", "2147483647 0 1\n"} {
		_, err := ReadEdgeList(strings.NewReader(bad), true)
		if err == nil || !strings.Contains(err.Error(), "node id above 16777215") {
			t.Fatalf("input %q: err = %v, want the node-id cap", bad, err)
		}
	}
}

// graphsEqual compares snapshots, labels, weights and activity.
func graphsEqual(a, b *egraph.IntEvolvingGraph) bool {
	if a.NumStamps() != b.NumStamps() || a.StaticEdgeCount() != b.StaticEdgeCount() ||
		a.NumActiveNodes() != b.NumActiveNodes() {
		return false
	}
	for t := 0; t < a.NumStamps(); t++ {
		if a.TimeLabel(t) != b.TimeLabel(t) {
			return false
		}
		equal := true
		a.VisitEdges(int32(t), func(u, v int32, w float64) bool {
			if !b.HasEdge(u, v, int32(t)) {
				equal = false
				return false
			}
			return true
		})
		if !equal {
			return false
		}
	}
	return true
}
