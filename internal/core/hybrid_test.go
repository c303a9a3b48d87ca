package core

// Tests of the CSR engine's direction-optimizing (hybrid top-down /
// bottom-up) levels. The production rule goes bottom-up only once the
// frontier outnumbers the unvisited temporal nodes, which small graphs
// rarely reach; alwaysBottomUp forces every level of a search without
// parents bottom-up, so the differential checks below run that branch
// on every graph.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/egraph"
	"repro/internal/gen"
)

func alwaysBottomUp(frontier, unvisited int) bool { return true }

// assertSameLevels compares level sizes, which distances alone do not
// pin for a search cut short by MaxDepth.
func assertSameLevels(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.levels, want.levels) {
		t.Fatalf("%s: levels %v, want %v", label, got.levels, want.levels)
	}
}

func TestHybridBFSFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	for _, rule := range []levelRule{frontierOutnumbers, alwaysBottomUp} {
		res, err := search(g, []egraph.TemporalNode{tn(0, 0)}, Options{}, rule, noStop)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumReached() != 6 || res.Dist(tn(2, 2)) != 3 {
			t.Fatalf("reached=%d dist=%d, want 6 and 3", res.NumReached(), res.Dist(tn(2, 2)))
		}
		// Even the production rule fires here: the last level's frontier
		// {(3,t2), (2,t3)} outnumbers the one unvisited node (3,t3).
		if res.bottomUp == 0 {
			t.Fatal("no level ran bottom-up")
		}
	}
}

func TestHybridBFSInactiveRoot(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := search(g, []egraph.TemporalNode{tn(2, 0)}, Options{}, alwaysBottomUp, noStop); !errors.Is(err, ErrInactiveRoot) {
		t.Fatalf("err = %v, want ErrInactiveRoot", err)
	}
}

func TestHybridBFSMaxDepth(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := search(g, []egraph.TemporalNode{tn(0, 0)}, Options{MaxDepth: 1}, alwaysBottomUp, noStop)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReached() != 3 || res.bottomUp != 1 {
		t.Fatalf("NumReached = %d after %d bottom-up levels, want 3 after 1", res.NumReached(), res.bottomUp)
	}
}

// Every level bottom-up must reproduce the oracle's distances and level
// sizes across the option matrix, bounded depths, single and multiple
// roots, and roots early, midway and late in time.
func TestHybridBFSMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var graphs []*egraph.IntEvolvingGraph
	for trial := 0; trial < 40; trial++ {
		graphs = append(graphs, randomGraph(rng, trial%2 == 0))
	}
	graphs = append(graphs,
		gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 2500, Directed: true, Seed: 1}),
		gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 2500, Directed: false, Seed: 2}))
	for gi, g := range graphs {
		last := g.NumStamps() - 1
		var roots []egraph.TemporalNode
		for _, s := range []int{0, last / 2, last} {
			roots = append(roots, tn(int32(g.ActiveNodes(s).NextSet(0)), int32(s)))
		}
		rootSets := [][]egraph.TemporalNode{roots[:1], roots[1:2], roots[2:], roots}
		for _, base := range optionMatrix(false) {
			for depth := 0; depth <= 2; depth++ {
				opts := base
				opts.MaxDepth = depth
				oracle := opts
				oracle.UseAdjacencyMaps = true
				for _, rs := range rootSets {
					want, err := search(g, rs, oracle, frontierOutnumbers, noStop)
					if err != nil {
						t.Fatal(err)
					}
					got, err := search(g, rs, opts, alwaysBottomUp, noStop)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("graph %d roots %v %+v", gi, rs, opts)
					assertSameDistances(t, label, got, want)
					assertSameLevels(t, label, got, want)
					if got.bottomUp == 0 {
						t.Fatalf("%s: no level ran bottom-up", label)
					}
				}
			}
		}
	}
}

// The production rule on a dense, low-diameter graph: results match the
// oracle whichever levels ran bottom-up.
func TestHybridBFSDenseGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := egraph.NewBuilder(true)
	const n, stamps = 150, 4
	for e := 0; e < 6000; e++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(stamps)))
	}
	g := b.Build()
	root := tn(int32(g.ActiveNodes(0).NextSet(0)), 0)
	want, err := BFS(g, root, Options{UseAdjacencyMaps: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BFS(g, root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, "dense", got, want)
	assertSameLevels(t, "dense", got, want)
}

// Parent-tracking searches stay top-down whatever the rule says, so
// their parents remain bit-identical to the oracle's.
func TestHybridBFSParents(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, trial%2 == 0)
		root := firstActive(g)
		for _, opts := range optionMatrix(true) {
			oracle := opts
			oracle.UseAdjacencyMaps = true
			want, err := BFS(g, root, oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := search(g, []egraph.TemporalNode{root}, opts, alwaysBottomUp, noStop)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d %+v", trial, opts)
			assertIdentical(t, label, got, want)
			if got.bottomUp != 0 {
				t.Fatalf("%s: %d parent-tracking levels ran bottom-up", label, got.bottomUp)
			}
		}
	}
}

// The production rule fires where the frontier swamps what is left — in
// every search from the first stamp of a dense graph — and never on the
// sparse graph the hot-read workload serves (500 nodes × 8 stamps ×
// 5000 edges), from any root in either causal mode.
func TestBottomUpLevelCount(t *testing.T) {
	dense := gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 20000, Directed: true, Seed: 1})
	act := dense.ActiveNodes(0)
	for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
		res, err := BFS(dense, tn(int32(v), 0), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.bottomUp == 0 {
			t.Fatalf("dense graph, root (%d,0): levels %v, none bottom-up", v, res.levels)
		}
	}

	for _, seed := range []int64{1, 2} {
		sparse := gen.Random(gen.RandomConfig{Nodes: 500, Stamps: 8, Edges: 5000, Directed: true, Seed: seed})
		for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
			for _, root := range sparse.ActiveTemporalNodes() {
				res, err := BFS(sparse, root, Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				if res.bottomUp != 0 {
					t.Fatalf("sparse graph seed %d, %v from %v: %d bottom-up levels", seed, mode, root, res.bottomUp)
				}
			}
		}
	}
}
