package core

// Fuzz harness for the BFS engines: the input bytes decode into a tiny
// evolving graph, a root and a full option set, and the CSR engine must
// equal the adjacency-map oracle on distances, level sizes and the
// reached count — and on parents too when the search tracks them. Two
// flags force every level onto bitmaps and every bitmap level's static
// step bottom-up, so both are explored on graphs far too small for the
// production rule to pick them, and a third spreads the node ids so a
// stamp's row of the id space crosses word boundaries. A forward,
// unbounded, parent-tracking case on unreversed edges also checks that
// ShortestPath, which stops at its target's level, returns the oracle's
// path to every active temporal node.
//
// Run with the race detector:
//
//	go test -race -run '^$' -fuzz '^FuzzBFSEngines$' -fuzztime 30s ./internal/core
//
// Plain `go test` replays the committed corpus under testdata/fuzz:
// Figure 1, a per-stamp clique, an undirected case, a node active at
// every label whose middle stamps are claimed by static arcs in the
// level its first stamp expands (the causal cutoff's skip case), rows of
// 70 bits that straddle words, a consecutive-mode node whose carry
// passes an inactive stamp, and a backward search on spread ids.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/egraph"
)

const (
	fuzzNodes    = 12 // node ids drawn from [0, 12)
	fuzzSpread   = 23 // fuzzSpreadIDs multiplies them: N up to 254, 4 words a row
	fuzzLabels   = 5  // time labels 1..5
	fuzzMaxEdges = 64
)

// Flag bits of the first input byte.
const (
	fuzzDirected = 1 << iota
	fuzzConsecutive
	fuzzBackward
	fuzzReverseEdges
	fuzzTrackParents
	fuzzBitmap    // every level of a search without parents on bitmaps
	fuzzBottomUp  // every bitmap level's static step bottom-up
	fuzzSpreadIDs // node id u becomes u·fuzzSpread
)

// decodeBFSCase turns fuzz bytes into a search: byte 0 holds the flags
// above, byte 1 the depth bound (mod 4, 0 = unbounded), byte 2 picks
// the root among the active temporal nodes, and every following 3-byte
// group is an edge (u, v, label). ok is false when the graph has no
// active temporal node to start from. A flag left clear leaves that
// choice to the production rule.
func decodeBFSCase(data []byte) (g *egraph.IntEvolvingGraph, root egraph.TemporalNode, opts Options, rule levelRule, ok bool) {
	if len(data) < 3 {
		return nil, root, opts, rule, false
	}
	flags, depth, pick := data[0], data[1], data[2]
	spread := int32(1)
	if flags&fuzzSpreadIDs != 0 {
		spread = fuzzSpread
	}
	b := egraph.NewBuilder(flags&fuzzDirected != 0)
	for e, n := data[3:], 0; len(e) >= 3 && n < fuzzMaxEdges; e, n = e[3:], n+1 {
		b.AddEdge(spread*int32(e[0]%fuzzNodes), spread*int32(e[1]%fuzzNodes), int64(1+e[2]%fuzzLabels))
	}
	g = b.Build()
	active := g.ActiveTemporalNodes()
	if len(active) == 0 {
		return nil, root, opts, rule, false
	}
	root = active[int(pick)%len(active)]
	opts = Options{
		ReverseEdges: flags&fuzzReverseEdges != 0,
		MaxDepth:     int(depth % 4),
		TrackParents: flags&fuzzTrackParents != 0,
	}
	if flags&fuzzConsecutive != 0 {
		opts.Mode = egraph.CausalConsecutive
	}
	if flags&fuzzBackward != 0 {
		opts.Direction = Backward
	}
	rule = amortised
	if flags&fuzzBitmap != 0 {
		rule.bitmap = always
	}
	if flags&fuzzBottomUp != 0 {
		rule.bottomUp = always
	}
	return g, root, opts, rule, true
}

func FuzzBFSEngines(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, root, opts, rule, ok := decodeBFSCase(data)
		if !ok {
			return
		}
		oracle := opts
		oracle.UseAdjacencyMaps = true
		want, err := BFS(g, root, oracle)
		if err != nil {
			t.Fatal(err)
		}
		got, err := search(g, []egraph.TemporalNode{root}, opts, rule, noStop)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("root %v %+v", root, opts)
		if !opts.TrackParents {
			assertSameDistances(t, label, got, want)
			assertSameLevels(t, label, got, want)
			return
		}
		assertIdentical(t, label, got, want)
		if opts.Direction != Forward || opts.ReverseEdges || opts.MaxDepth != 0 || data[0]&(fuzzBitmap|fuzzBottomUp) != 0 {
			return
		}
		for _, to := range g.ActiveTemporalNodes() {
			path, err := ShortestPath(g, root, to, opts.Mode)
			if err != nil {
				t.Fatal(err)
			}
			if oracle := want.PathTo(to); !slices.Equal(path, oracle) {
				t.Fatalf("%s: ShortestPath to %v = %v, oracle %v", label, to, path, TemporalPath(oracle))
			}
		}
	})
}
