package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
	"repro/internal/gen"
)

func TestTransitiveClosureFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	c := TransitiveClosure(g, egraph.CausalAllPairs)
	if !c.Reaches(tn(0, 0), tn(2, 2)) {
		t.Fatal("(1,t1) should reach (3,t3)")
	}
	if c.Reaches(tn(2, 2), tn(0, 0)) {
		t.Fatal("(3,t3) must not reach (1,t1)")
	}
	if !c.Reaches(tn(0, 0), tn(0, 0)) {
		t.Fatal("self-reachability missing")
	}
	if c.Reaches(tn(2, 0), tn(2, 2)) {
		t.Fatal("inactive (3,t1) should reach nothing")
	}
	if got := c.ReachSetSize(tn(0, 0)); got != 6 {
		t.Fatalf("ReachSetSize((1,t1)) = %d, want 6", got)
	}
	if got := c.ReachSetSize(tn(2, 0)); got != 0 {
		t.Fatalf("inactive ReachSetSize = %d, want 0", got)
	}
}

// Property: closure agrees with one BFS per root, including on graphs
// with within-stamp cycles.
func TestTransitiveClosureMatchesBFS(t *testing.T) {
	f := func(seed int64, directed, consecutive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		mode := egraph.CausalAllPairs
		if consecutive {
			mode = egraph.CausalConsecutive
		}
		c := TransitiveClosure(g, mode)
		u := g.Unfold(mode)
		pairSum := 0
		for _, root := range u.Order {
			res, err := BFS(g, root, Options{Mode: mode})
			if err != nil {
				return false
			}
			if c.ReachSetSize(root) != res.NumReached() {
				return false
			}
			pairSum += res.NumReached() - 1
			for _, to := range u.Order {
				if c.Reaches(root, to) != res.Reached(to) {
					return false
				}
			}
		}
		return c.ReachablePairs() == pairSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The closure's rows are written from concurrent LaneSweep callbacks,
// one batch of 64 roots each: on a graph with several batches, every
// row must still agree with one BFS from its root.
func TestTransitiveClosureManyBatches(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := gen.Random(gen.RandomConfig{Nodes: 120, Stamps: 4, Edges: 500, Directed: directed, Seed: 5})
		active := g.ActiveTemporalNodes()
		if len(active) <= 2*laneWidth {
			t.Fatalf("%d active temporal nodes, want more than %d", len(active), 2*laneWidth)
		}
		for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
			c := TransitiveClosure(g, mode)
			for _, root := range active {
				res, err := BFS(g, root, Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := c.ReachSetSize(root), res.NumReached(); got != want {
					t.Fatalf("directed=%v %v: ReachSetSize(%v) = %d, BFS reached %d", directed, mode, root, got, want)
				}
				for _, to := range active {
					if c.Reaches(root, to) != res.Reached(to) {
						t.Fatalf("directed=%v %v: Reaches(%v, %v) = %v, BFS says %v",
							directed, mode, root, to, c.Reaches(root, to), res.Reached(to))
					}
				}
			}
		}
	}
}

func TestTransitiveClosureCycles(t *testing.T) {
	// 3-cycle at one stamp: every member reaches every member.
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	g := b.Build()
	c := TransitiveClosure(g, egraph.CausalAllPairs)
	for u := int32(0); u < 3; u++ {
		for v := int32(0); v < 3; v++ {
			if !c.Reaches(tn(u, 0), tn(v, 0)) {
				t.Fatalf("(%d,t1) should reach (%d,t1)", u, v)
			}
		}
	}
	if c.ReachablePairs() != 6 {
		t.Fatalf("pairs = %d, want 6", c.ReachablePairs())
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := egraph.Figure1Graph()
	if e := Eccentricity(g, tn(0, 0), egraph.CausalAllPairs); e != 3 {
		t.Fatalf("ecc((1,t1)) = %d, want 3", e)
	}
	if e := Eccentricity(g, tn(2, 2), egraph.CausalAllPairs); e != 0 {
		t.Fatalf("ecc((3,t3)) = %d, want 0", e)
	}
	if e := Eccentricity(g, tn(2, 0), egraph.CausalAllPairs); e != -1 {
		t.Fatalf("inactive ecc = %d, want -1", e)
	}
	if d := TemporalDiameter(g, egraph.CausalAllPairs); d != 3 {
		t.Fatalf("diameter = %d, want 3", d)
	}
}

// Property: diameter = max eccentricity; consecutive mode never shrinks
// the diameter.
func TestDiameterConsistency(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		dAll := TemporalDiameter(g, egraph.CausalAllPairs)
		dCons := TemporalDiameter(g, egraph.CausalConsecutive)
		return dCons >= dAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
