package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/egraph"
	"repro/internal/gen"
)

// optionMatrix enumerates every engine-relevant option combination.
func optionMatrix(trackParents bool) []Options {
	var out []Options
	for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
		for _, dir := range []Direction{Forward, Backward} {
			for _, rev := range []bool{false, true} {
				out = append(out, Options{
					Mode: mode, Direction: dir, ReverseEdges: rev,
					TrackParents: trackParents,
				})
			}
		}
	}
	return out
}

func firstActive(g *egraph.IntEvolvingGraph) egraph.TemporalNode {
	for t := 0; t < g.NumStamps(); t++ {
		if v := g.ActiveNodes(t).NextSet(0); v >= 0 {
			return egraph.TemporalNode{Node: int32(v), Stamp: int32(t)}
		}
	}
	panic("no active temporal node")
}

// assertIdentical compares every observable of two results. A
// parent-tracking CSR search mirrors the oracle's visit order, so even
// parents and level sizes must be bit-identical.
func assertIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.reached != want.reached {
		t.Fatalf("%s: reached %d, want %d", label, got.reached, want.reached)
	}
	for id := range want.dist {
		if got.dist[id] != want.dist[id] {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, id, got.dist[id], want.dist[id])
		}
	}
	if (got.parent == nil) != (want.parent == nil) {
		t.Fatalf("%s: parent tracking mismatch", label)
	}
	for id := range want.parent {
		if got.parent[id] != want.parent[id] {
			t.Fatalf("%s: parent[%d] = %d, want %d", label, id, got.parent[id], want.parent[id])
		}
	}
	if len(got.levels) != len(want.levels) {
		t.Fatalf("%s: levels %v, want %v", label, got.levels, want.levels)
	}
	for i := range want.levels {
		if got.levels[i] != want.levels[i] {
			t.Fatalf("%s: levels %v, want %v", label, got.levels, want.levels)
		}
	}
}

// assertSameDistances compares distances only (for engines that may
// legitimately pick different BFS-tree parents).
func assertSameDistances(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.reached != want.reached {
		t.Fatalf("%s: reached %d, want %d", label, got.reached, want.reached)
	}
	for id := range want.dist {
		if got.dist[id] != want.dist[id] {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, id, got.dist[id], want.dist[id])
		}
	}
}

// The CSR engine must be indistinguishable from the adjacency-map
// oracle on randomized graphs across both causal modes, both time
// directions, and both static-edge senses.
func TestCSREngineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20160189))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, trial%2 == 0)
		root := firstActive(g)
		for _, opts := range optionMatrix(true) {
			oracle := opts
			oracle.UseAdjacencyMaps = true
			want, err := BFS(g, root, oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BFS(g, root, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d %v/%v rev=%v", trial, opts.Mode, opts.Direction, opts.ReverseEdges)
			assertIdentical(t, label, got, want)
		}
	}
}

// Same differential check on the larger Figure 5 generator workload.
func TestCSREngineMatchesOracleOnGeneratorGraphs(t *testing.T) {
	graphs := []*egraph.IntEvolvingGraph{
		gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 2500, Directed: true, Seed: 1}),
		gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 2500, Directed: false, Seed: 2}),
		gen.GNP(120, 5, 0.02, true, 3),
		gen.PreferentialAttachment(200, 5, 3, 4),
	}
	for gi, g := range graphs {
		root := firstActive(g)
		for _, opts := range optionMatrix(true) {
			oracle := opts
			oracle.UseAdjacencyMaps = true
			want, err := BFS(g, root, oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BFS(g, root, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("graph %d %v/%v rev=%v", gi, opts.Mode, opts.Direction, opts.ReverseEdges)
			assertIdentical(t, label, got, want)
		}
	}
}

// MaxDepth must truncate both engines at the same level.
func TestCSREngineMaxDepthMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, trial%2 == 0)
		root := firstActive(g)
		for depth := 1; depth <= 3; depth++ {
			opts := Options{MaxDepth: depth, TrackParents: true}
			oracle := opts
			oracle.UseAdjacencyMaps = true
			want, err := BFS(g, root, oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BFS(g, root, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, fmt.Sprintf("trial %d depth %d", trial, depth), got, want)
		}
	}
}

// Multi-source searches share the engine dispatch; check both paths.
func TestCSREngineMultiSourceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, trial%2 == 0)
		var roots []egraph.TemporalNode
		for t2 := 0; t2 < g.NumStamps() && len(roots) < 3; t2++ {
			act := g.ActiveNodes(t2)
			for v := act.NextSet(0); v >= 0 && len(roots) < 3; v = act.NextSet(v + 1) {
				roots = append(roots, egraph.TemporalNode{Node: int32(v), Stamp: int32(t2)})
			}
		}
		for _, opts := range optionMatrix(true) {
			oracle := opts
			oracle.UseAdjacencyMaps = true
			want, err := MultiSourceBFS(g, roots, oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MultiSourceBFS(g, roots, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, fmt.Sprintf("trial %d %+v", trial, opts), got, want)
		}
	}
}

// The parallel CSR engine guarantees identical distances (parents may
// differ by claim order) against both sequential engines.
func TestParallelCSRMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, trial%2 == 0)
		root := firstActive(g)
		for _, base := range optionMatrix(false) {
			oracle := base
			oracle.UseAdjacencyMaps = true
			want, err := BFS(g, root, oracle)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				// Both the CSR engine and the adjacency-map parallel
				// oracle must reproduce the sequential distances.
				for _, useMaps := range []bool{false, true} {
					popts := base
					popts.UseAdjacencyMaps = useMaps
					got, err := ParallelBFS(g, root, ParallelOptions{Options: popts, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("trial %d workers %d maps=%v %+v", trial, workers, useMaps, base)
					assertSameDistances(t, label, got, want)
				}
			}
		}
	}
}

// Parallel CSR parents, when tracked, must form a valid BFS tree: every
// non-root reached node's parent sits exactly one level closer.
func TestParallelCSRParentsValid(t *testing.T) {
	g := gen.Random(gen.RandomConfig{Nodes: 200, Stamps: 5, Edges: 1500, Directed: true, Seed: 9})
	root := firstActive(g)
	res, err := ParallelBFS(g, root, ParallelOptions{Options: Options{TrackParents: true}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rootID := g.TemporalNodeID(root)
	for id, d := range res.dist {
		if d < 0 || id == rootID {
			continue
		}
		p := res.parent[id]
		if p < 0 {
			t.Fatalf("reached node %d has no parent", id)
		}
		if res.dist[p] != d-1 {
			t.Fatalf("parent of %d at dist %d has dist %d", id, d, res.dist[p])
		}
	}
}

// causalWork is the causal part of an unbounded list-level search's
// work: its work less the static arcs out of every node it reached, each
// of which it expanded.
func causalWork(g *egraph.IntEvolvingGraph, res *Result, opts Options) int {
	csr := g.CSR()
	useOut := (opts.Direction == Forward) != opts.ReverseEdges
	work := res.work
	for id, d := range res.dist {
		if d < 0 {
			continue
		}
		if useOut {
			work -= len(csr.OutArcs(int32(id)))
		} else {
			work -= len(csr.InArcs(int32(id)))
		}
	}
	return work
}

// The causal cutoff leaves distances unchanged, so only the work counter
// shows it: on the search-cold graph an all-pairs search without parents
// examines at most half the causal arcs that the full-scan
// parent-tracking search of the same root does. Consecutive mode has
// one causal arc per node and no cutoff, so there the counts are equal.
// Both searches stay on list levels, where causal arcs are counted one
// by one.
func TestCausalCutoffWork(t *testing.T) {
	g := gen.Random(gen.RandomConfig{Nodes: 2000, Stamps: 16, Edges: 60000, Directed: true, Seed: 1})
	active := g.ActiveTemporalNodes()
	for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
		for _, dir := range []Direction{Forward, Backward} {
			var cut, full int
			for i := 0; i < len(active); i += len(active) / 12 {
				root := active[i]
				opts := Options{Mode: mode, Direction: dir}
				got, err := search(g, []egraph.TemporalNode{root}, opts, neverBitmap, noStop)
				if err != nil {
					t.Fatal(err)
				}
				opts.TrackParents = true
				want, err := BFS(g, root, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v %v root %v", mode, dir, root)
				assertSameDistances(t, label, got, want)
				assertSameLevels(t, label, got, want)
				cut += causalWork(g, got, opts)
				full += causalWork(g, want, opts)
			}
			t.Logf("%v %v: %d causal arcs with the cutoff, %d without (%.2f)", mode, dir, cut, full, float64(cut)/float64(full))
			if full == 0 {
				t.Fatalf("%v %v: no causal arc examined", mode, dir)
			}
			if mode == egraph.CausalConsecutive && cut != full {
				t.Fatalf("%v %v: %d causal arcs examined, want the full scan's %d", mode, dir, cut, full)
			}
			if mode == egraph.CausalAllPairs && 2*cut > full {
				t.Fatalf("%v %v: %d causal arcs examined, want at most half of the full scan's %d", mode, dir, cut, full)
			}
		}
	}
}

// A steady-state BFS on the search-cold graph allocates only its Result:
// the struct, dist and the growing level sizes. Bitmap levels draw their
// bitmaps and carry row from the pooled frontier.
func TestBFSAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	g := gen.Random(gen.RandomConfig{Nodes: 2000, Stamps: 16, Edges: 60000, Directed: true, Seed: 1})
	roots := stampZeroRoots(g, 8)
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := BFS(g, roots[i%len(roots)], Options{}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 8 {
		t.Fatalf("BFS allocates %.1f times per search, want ≤ 8", allocs)
	}
}

// DistinctNodes counts the nodes of the temporal nodes Visit reports.
func TestDistinctNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	graphs := []*egraph.IntEvolvingGraph{
		gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 2500, Directed: true, Seed: 1}),
		gen.Random(gen.RandomConfig{Nodes: 300, Stamps: 6, Edges: 800, Directed: false, Seed: 2}),
	}
	for trial := 0; trial < 20; trial++ {
		graphs = append(graphs, randomGraph(rng, trial%2 == 0))
	}
	for gi, g := range graphs {
		active := g.ActiveTemporalNodes()
		for _, root := range []egraph.TemporalNode{active[0], active[len(active)/2], active[len(active)-1]} {
			for _, base := range optionMatrix(false) {
				res, err := BFS(g, root, base)
				if err != nil {
					t.Fatal(err)
				}
				nodes := map[int32]bool{}
				res.Visit(func(tn egraph.TemporalNode, _ int) bool {
					nodes[tn.Node] = true
					return true
				})
				if got := res.DistinctNodes(); got != len(nodes) {
					t.Fatalf("graph %d root %v %+v: DistinctNodes = %d, Visit saw %d", gi, root, base, got, len(nodes))
				}
			}
		}
	}
}
