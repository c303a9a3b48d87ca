package core

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
	"repro/internal/gen"
)

// Figure 2: exactly two temporal paths of length 4 from (1,t1) to (3,t3),
// ⟨(1,t1),(1,t2),(3,t2),(3,t3)⟩ and ⟨(1,t1),(2,t1),(2,t3),(3,t3)⟩.
func TestFigure2TemporalPaths(t *testing.T) {
	g := egraph.Figure1Graph()
	paths, err := EnumeratePaths(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("found %d paths, want 2: %v", len(paths), paths)
	}
	want := map[string]bool{
		"⟨(0,t1), (0,t2), (2,t2), (2,t3)⟩": true,
		"⟨(0,t1), (1,t1), (1,t3), (2,t3)⟩": true,
	}
	for _, p := range paths {
		if p.Length() != 4 {
			t.Fatalf("path %v has length %d, want 4", p, p.Length())
		}
		if p.Hops() != 3 {
			t.Fatalf("path %v has %d hops, want 3", p, p.Hops())
		}
		if !want[p.String()] {
			t.Fatalf("unexpected path %v", p)
		}
		if !p.IsValid(g, egraph.CausalAllPairs) {
			t.Fatalf("enumerated path %v fails IsValid", p)
		}
	}
}

// The non-path from Sec. II-A: ⟨(1,t1),(1,t2),(2,t2),(3,t2),(3,t3)⟩ is
// invalid because (2,t2) is inactive.
func TestInvalidPathThroughInactiveNode(t *testing.T) {
	g := egraph.Figure1Graph()
	p := TemporalPath{tn(0, 0), tn(0, 1), tn(1, 1), tn(2, 1), tn(2, 2)}
	if p.IsValid(g, egraph.CausalAllPairs) {
		t.Fatal("path through inactive (2,t2) reported valid")
	}
}

func TestPathValidation(t *testing.T) {
	g := egraph.Figure1Graph()
	cases := []struct {
		name string
		p    TemporalPath
		mode egraph.CausalMode
		want bool
	}{
		{"empty", TemporalPath{}, egraph.CausalAllPairs, true},
		{"single active", TemporalPath{tn(0, 0)}, egraph.CausalAllPairs, true},
		{"single inactive", TemporalPath{tn(2, 0)}, egraph.CausalAllPairs, false},
		{"static hop", TemporalPath{tn(0, 0), tn(1, 0)}, egraph.CausalAllPairs, true},
		{"missing edge", TemporalPath{tn(1, 0), tn(0, 0)}, egraph.CausalAllPairs, false},
		{"causal hop", TemporalPath{tn(0, 0), tn(0, 1)}, egraph.CausalAllPairs, true},
		{"backward in time", TemporalPath{tn(0, 1), tn(0, 0)}, egraph.CausalAllPairs, false},
		{"repeat temporal node", TemporalPath{tn(0, 0), tn(0, 0)}, egraph.CausalAllPairs, false},
		{"skip causal all-pairs", TemporalPath{tn(1, 0), tn(1, 2)}, egraph.CausalAllPairs, true},
		{"out of range", TemporalPath{tn(9, 0)}, egraph.CausalAllPairs, false},
	}
	for _, tc := range cases {
		if got := tc.p.IsValid(g, tc.mode); got != tc.want {
			t.Errorf("%s: IsValid = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestConsecutiveModeRejectsSkipHop(t *testing.T) {
	// Node 0 active at stamps 0,1,2.
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 1, 3)
	g := b.Build()
	skip := TemporalPath{tn(0, 0), tn(0, 2)}
	if !skip.IsValid(g, egraph.CausalAllPairs) {
		t.Fatal("skip hop should be valid in all-pairs mode")
	}
	if skip.IsValid(g, egraph.CausalConsecutive) {
		t.Fatal("skip hop should be invalid in consecutive mode")
	}
	chain := TemporalPath{tn(0, 0), tn(0, 1), tn(0, 2)}
	if !chain.IsValid(g, egraph.CausalConsecutive) {
		t.Fatal("chain should be valid in consecutive mode")
	}
}

// CountWalks reproduces the algebraic result: 2 walks of 3 hops from
// (1,t1) to (3,t3), 0 of any other hop count.
func TestCountWalksFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	got, err := CountWalks(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("3-hop walks = %d, want 2", got)
	}
	for _, k := range []int{0, 1, 2, 4, 5} {
		got, err := CountWalks(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("%d-hop walks = %d, want 0", k, got)
		}
	}
}

func TestCountWalksErrors(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := CountWalks(g, tn(2, 0), tn(2, 2), egraph.CausalAllPairs, 1); err == nil {
		t.Fatal("inactive source should fail")
	}
	if _, err := CountWalks(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs, -1); err == nil {
		t.Fatal("negative k should fail")
	}
}

// Property: on acyclic snapshots (DAG per stamp), the number of paths
// found by enumeration with exactly k hops equals CountWalks(k).
func TestEnumerationMatchesWalkCountOnDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := egraph.NewBuilder(true)
		n := 2 + rng.Intn(5)
		stamps := 1 + rng.Intn(3)
		for e := 0; e < rng.Intn(2*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			b.AddEdge(int32(u), int32(v), int64(1+rng.Intn(stamps)))
		}
		b.AddEdge(0, 1, 1)
		g := b.Build()
		u := g.Unfold(egraph.CausalAllPairs)
		from := u.Order[0]
		for _, to := range u.Order {
			if to == from {
				continue
			}
			paths, err := EnumeratePaths(g, from, to, egraph.CausalAllPairs, 0)
			if err != nil {
				return false
			}
			byHops := map[int]int64{}
			for _, p := range paths {
				byHops[p.Hops()]++
			}
			maxK := g.NumActiveNodes()
			for k := 1; k <= maxK; k++ {
				walks, err := CountWalks(g, from, to, egraph.CausalAllPairs, k)
				if err != nil {
					return false
				}
				if walks != byHops[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	p, err := ShortestPath(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 3 {
		t.Fatalf("shortest path %v has %d hops, want 3", p, p.Hops())
	}
	if p[0] != tn(0, 0) || p[len(p)-1] != tn(2, 2) {
		t.Fatalf("endpoints wrong: %v", p)
	}
	if !p.IsValid(g, egraph.CausalAllPairs) {
		t.Fatalf("shortest path %v invalid", p)
	}
	// Unreachable target → nil.
	p, err = ShortestPath(g, tn(2, 2), tn(0, 0), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatalf("unreachable target returned path %v", p)
	}
}

// Property: PathTo returns a valid temporal path of exactly Dist hops
// for every reached node.
func TestPathToAlwaysValidAndShortest(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		u := g.Unfold(egraph.CausalAllPairs)
		root := u.Order[0]
		res, err := BFS(g, root, Options{TrackParents: true})
		if err != nil {
			return false
		}
		ok := true
		res.Visit(func(n egraph.TemporalNode, d int) bool {
			p := TemporalPath(res.PathTo(n))
			if p.Hops() != d || !p.IsValid(g, egraph.CausalAllPairs) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPathToWithoutParents(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := BFS(g, tn(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PathTo(tn(2, 2)) != nil {
		t.Fatal("PathTo without TrackParents should return nil")
	}
	if _, ok := res.Parent(tn(2, 2)); ok {
		t.Fatal("Parent without TrackParents should be ok=false")
	}
}

func TestEnumeratePathsMaxHops(t *testing.T) {
	g := egraph.Figure1Graph()
	paths, err := EnumeratePaths(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("2-hop cap should exclude both 3-hop paths, got %v", paths)
	}
}

func TestEnumeratePathsErrors(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := EnumeratePaths(g, tn(2, 0), tn(2, 2), egraph.CausalAllPairs, 0); err == nil {
		t.Fatal("inactive source should fail")
	}
	if _, err := EnumeratePaths(g, tn(0, 0), tn(2, 0), egraph.CausalAllPairs, 0); err == nil {
		t.Fatal("inactive target should fail")
	}
}

func TestTemporalPathString(t *testing.T) {
	p := TemporalPath{tn(0, 0), tn(1, 0)}
	if got := p.String(); !strings.Contains(got, "(0,t1)") || !strings.Contains(got, "(1,t1)") {
		t.Fatalf("String = %q", got)
	}
	if (TemporalPath{}).String() != "⟨⟩" {
		t.Fatal("empty path string wrong")
	}
	if (TemporalPath{}).Hops() != 0 {
		t.Fatal("empty path hops wrong")
	}
}

// A target outside the graph is an error, not an alias: TemporalNodeID
// is stamp·N + node, so (5,t2) on the 3-node Figure 1 graph would
// otherwise name (2,t3). An in-range inactive target has no path.
func TestShortestPathTargetChecks(t *testing.T) {
	g := egraph.Figure1Graph()
	for _, to := range []egraph.TemporalNode{tn(5, 1), tn(-1, 0), tn(0, 3), tn(0, -1)} {
		if p, err := ShortestPath(g, tn(0, 0), to, egraph.CausalAllPairs); err == nil {
			t.Fatalf("target %v outside the graph: path %v, no error", to, p)
		}
	}
	p, err := ShortestPath(g, tn(0, 0), tn(2, 0), egraph.CausalAllPairs)
	if err != nil || p != nil {
		t.Fatalf("inactive target: path %v, err %v; want nil, nil", p, err)
	}
	if _, err := ShortestPath(g, tn(2, 0), tn(0, 0), egraph.CausalAllPairs); !errors.Is(err, ErrInactiveRoot) {
		t.Fatalf("inactive source: err %v, want ErrInactiveRoot", err)
	}
	p, err = ShortestPath(g, tn(0, 0), tn(0, 0), egraph.CausalAllPairs)
	if err != nil || len(p) != 1 || p[0] != tn(0, 0) {
		t.Fatalf("path to the source itself: %v, %v", p, err)
	}
}

// ShortestPath stops at its target's level but must return exactly the
// path a full parent-tracking search reconstructs, for every target.
func TestShortestPathMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	graphs := []*egraph.IntEvolvingGraph{
		gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 2500, Directed: true, Seed: 1}),
	}
	for trial := 0; trial < 10; trial++ {
		graphs = append(graphs, randomGraph(rng, trial%2 == 0))
	}
	for gi, g := range graphs {
		root := firstActive(g)
		for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
			full, err := BFS(g, root, Options{Mode: mode, TrackParents: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, to := range g.ActiveTemporalNodes() {
				got, err := ShortestPath(g, root, to, mode)
				if err != nil {
					t.Fatal(err)
				}
				if want := full.PathTo(to); !slices.Equal(got, want) {
					t.Fatalf("graph %d %v %v→%v: path %v, full search %v", gi, mode, root, to, got, TemporalPath(want))
				}
			}
		}
	}
}
