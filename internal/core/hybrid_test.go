package core

// Tests of the CSR engine's level kinds. The production rule runs a
// level on bitmaps only once its frontier holds as many temporal nodes
// as the causal sweep reads words, and a bitmap level's static step
// bottom-up only once the frontier outnumbers what it could claim; the
// forced rules below run every level as one fixed kind, so the
// differential checks cover each kind on every graph.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/egraph"
	"repro/internal/gen"
)

func always(frontier, bound int) bool { return true }
func never(frontier, bound int) bool  { return false }

var (
	neverBitmap    = levelRule{bitmap: never, bottomUp: never}
	bitmapBottomUp = levelRule{bitmap: always, bottomUp: always}
	bitmapTopDown  = levelRule{bitmap: always, bottomUp: never}
)

// levelRules names every forced level kind and the production rule.
var levelRules = []struct {
	name string
	rule levelRule
}{
	{"never-bitmap", neverBitmap},
	{"bitmap-bottom-up", bitmapBottomUp},
	{"bitmap-top-down", bitmapTopDown},
	{"amortised", amortised},
}

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
	for _, lr := range levelRules {
		res, err := search(g, []egraph.TemporalNode{tn(0, 0)}, Options{}, lr.rule, noStop)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumReached() != 6 || res.Dist(tn(2, 2)) != 3 {
			t.Fatalf("%s: reached=%d dist=%d, want 6 and 3", lr.name, res.NumReached(), res.Dist(tn(2, 2)))
		}
		// The production rule keeps Fig. 1 on list levels: its sweep reads
		// one word in each of three stamps, and no frontier exceeds two.
		if (res.bitmapLevels == 0) != (lr.name == "never-bitmap" || lr.name == "amortised") {
			t.Fatalf("%s: %d bitmap levels", lr.name, res.bitmapLevels)
		}
	}
}

func TestHybridBFSInactiveRoot(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := search(g, []egraph.TemporalNode{tn(2, 0)}, Options{}, bitmapBottomUp, noStop); !errors.Is(err, ErrInactiveRoot) {
		t.Fatalf("err = %v, want ErrInactiveRoot", err)
	}
}

func TestHybridBFSMaxDepth(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := search(g, []egraph.TemporalNode{tn(0, 0)}, Options{MaxDepth: 1}, bitmapBottomUp, noStop)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReached() != 3 || res.bitmapLevels != 1 {
		t.Fatalf("NumReached = %d after %d bitmap levels, want 3 after 1", res.NumReached(), res.bitmapLevels)
	}
}

// Every level kind must reproduce the oracle's distances and level
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
					want, err := search(g, rs, oracle, amortised, noStop)
					if err != nil {
						t.Fatal(err)
					}
					for _, lr := range levelRules {
						got, err := search(g, rs, opts, lr.rule, noStop)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("graph %d roots %v %+v %s", gi, rs, opts, lr.name)
						assertSameDistances(t, label, got, want)
						assertSameLevels(t, label, got, want)
						// A forced kind runs every level, including a last one
						// that claims nothing and so adds no level size.
						switch lr.name {
						case "never-bitmap":
							if got.bitmapLevels != 0 {
								t.Fatalf("%s: %d bitmap levels", label, got.bitmapLevels)
							}
						case "bitmap-bottom-up", "bitmap-top-down":
							if got.bitmapLevels < len(got.levels)-1 {
								t.Fatalf("%s: %d bitmap levels for levels %v", label, got.bitmapLevels, got.levels)
							}
						}
					}
				}
			}
		}
	}
}

// The production rule on a dense, low-diameter graph: results match the
// oracle whichever levels ran on bitmaps.
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

// Parent-tracking searches stay on list levels whatever the rule says,
// so their parents remain bit-identical to the oracle's.
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
			got, err := search(g, []egraph.TemporalNode{root}, opts, bitmapBottomUp, noStop)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d %+v", trial, opts)
			assertIdentical(t, label, got, want)
			if got.bitmapLevels != 0 {
				t.Fatalf("%s: %d parent-tracking levels ran on bitmaps", label, got.bitmapLevels)
			}
		}
	}
}

// chainGraph is a directed path 0 → 1 → … → n−1 in a single stamp: every
// level of a search from its head has a frontier of one.
func chainGraph(n int) *egraph.IntEvolvingGraph {
	b := egraph.NewBuilder(true)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(int32(v), int32(v+1), 1)
	}
	return b.Build()
}

// stampZeroRoots returns up to limit active temporal nodes of stamp 0,
// spread over the node range.
func stampZeroRoots(g *egraph.IntEvolvingGraph, limit int) []egraph.TemporalNode {
	act := g.ActiveNodes(0)
	var all []egraph.TemporalNode
	for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
		all = append(all, tn(int32(v), 0))
	}
	var roots []egraph.TemporalNode
	for i := 0; i < len(all) && len(roots) < limit; i += max(1, len(all)/limit) {
		roots = append(roots, all[i])
	}
	return roots
}

// The production rule runs bitmap levels where a frontier grows wide —
// in every search from the first stamp of a dense graph and of the
// search-cold graph (2000×16×60000) — and never on a chain, whose every
// frontier is a single node.
func TestBottomUpLevelCount(t *testing.T) {
	for _, g := range []*egraph.IntEvolvingGraph{
		gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 20000, Directed: true, Seed: 1}),
		gen.Random(gen.RandomConfig{Nodes: 2000, Stamps: 16, Edges: 60000, Directed: true, Seed: 1}),
	} {
		for _, root := range stampZeroRoots(g, 40) {
			res, err := BFS(g, root, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.bitmapLevels == 0 {
				t.Fatalf("%d×%d graph, root %v: levels %v, none on bitmaps", g.NumNodes(), g.NumStamps(), root, res.levels)
			}
		}
	}

	chain := chainGraph(2000)
	for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
		res, err := BFS(chain, tn(0, 0), Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumReached() != 2000 || res.bitmapLevels != 0 {
			t.Fatalf("chain, %v: reached %d with %d bitmap levels", mode, res.NumReached(), res.bitmapLevels)
		}
	}
}

// Thm. 2 as a count: a search's work — static and causal arcs examined
// plus bitmap words scanned — stays within a small multiple of
// |Ẽ|+|Ṽ|. On a 40k-node chain no level is wide enough for a bitmap,
// so the work is the chain's arcs; running every level on bitmaps would
// scan the whole id space per node. From the first stamp of Fig. 5's
// e250k graph the bitmap levels do less work than |Ẽ|+|Ṽ|.
func TestBFSWorkWithinThm2(t *testing.T) {
	chain := chainGraph(40_000)
	bound := chain.EdgeCount(egraph.CausalAllPairs) + chain.NumActiveNodes()
	res, err := BFS(chain, tn(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.bitmapLevels != 0 || res.work > 2*bound {
		t.Fatalf("chain: work %d with %d bitmap levels, want ≤ 2·%d with none", res.work, res.bitmapLevels, bound)
	}

	g := gen.RandomSeries(10_000, 10, []int{250_000}, true, 1)[0]
	bound = g.EdgeCount(egraph.CausalAllPairs) + g.NumActiveNodes()
	for _, root := range stampZeroRoots(g, 4) {
		res, err := BFS(g, root, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("e250k from %v: work %d, |Ẽ|+|Ṽ| %d (%.2f), %d of %d levels on bitmaps",
			root, res.work, bound, float64(res.work)/float64(bound), res.bitmapLevels, len(res.levels)-1)
		if res.bitmapLevels == 0 || res.work >= bound {
			t.Fatalf("e250k from %v: work %d with %d bitmap levels, want < %d with some", root, res.work, res.bitmapLevels, bound)
		}
	}
}
