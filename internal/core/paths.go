package core

import (
	"fmt"

	"repro/internal/egraph"
)

// TemporalPath is a time-ordered sequence of active temporal nodes
// (Def. 4). Each consecutive pair is either a static hop (same stamp,
// edge in E[t]) or a causal hop (same node, later stamp). The paper's
// "length" is the number of temporal nodes; the number of hops is
// len(p) - 1 and equals the distance contribution of the path.
type TemporalPath []egraph.TemporalNode

// Hops returns the number of edges traversed by the path.
func (p TemporalPath) Hops() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Length returns the paper's path length: the number of temporal nodes.
func (p TemporalPath) Length() int { return len(p) }

func (p TemporalPath) String() string {
	s := "⟨"
	for i, tn := range p {
		if i > 0 {
			s += ", "
		}
		s += tn.String()
	}
	return s + "⟩"
}

// IsValid verifies that p is a temporal path of g under mode: all nodes
// active, time non-decreasing, and each consecutive pair a static edge
// or an allowed causal edge. The empty path is valid (Def. 4 makes the
// path from an inactive endpoint the empty sequence).
func (p TemporalPath) IsValid(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) bool {
	for _, tn := range p {
		if !inGraph(g, tn) || !g.IsActive(tn.Node, tn.Stamp) {
			return false
		}
	}
	for i := 1; i < len(p); i++ {
		a, b := p[i-1], p[i]
		switch {
		case a.Stamp == b.Stamp && a.Node != b.Node:
			if !g.HasEdge(a.Node, b.Node, a.Stamp) {
				return false
			}
		case a.Node == b.Node && a.Stamp < b.Stamp:
			if mode == egraph.CausalConsecutive && g.NextActiveStamp(a.Node, a.Stamp) != b.Stamp {
				return false
			}
		default:
			return false // same temporal node twice, or backward in time
		}
	}
	return true
}

// EnumeratePaths returns every simple temporal path from `from` to `to`
// with at most maxHops hops (maxHops ≤ 0 means unbounded — use only on
// small graphs). Paths are discovered by DFS over forward neighbours;
// a node may not repeat within one path. The result for the Fig. 1 graph
// from (1,t1) to (3,t3) is exactly the two length-4 paths of Fig. 2.
// It fails for a `to` that is inactive or outside g.
func EnumeratePaths(g *egraph.IntEvolvingGraph, from, to egraph.TemporalNode,
	mode egraph.CausalMode, maxHops int) ([]TemporalPath, error) {
	if err := checkRoot(g, from); err != nil {
		return nil, err
	}
	if err := checkTarget(g, to); err != nil {
		return nil, err
	}
	if !g.IsActive(to.Node, to.Stamp) {
		return nil, fmt.Errorf("core: path target %v is inactive", to)
	}
	var out []TemporalPath
	onPath := make(map[egraph.TemporalNode]bool)
	var cur TemporalPath

	var dfs func(tn egraph.TemporalNode)
	dfs = func(tn egraph.TemporalNode) {
		cur = append(cur, tn)
		onPath[tn] = true
		if tn == to {
			out = append(out, append(TemporalPath(nil), cur...))
		} else if maxHops <= 0 || len(cur)-1 < maxHops {
			visitNeighbors(g, tn, mode, Forward, func(nb egraph.TemporalNode) bool {
				if !onPath[nb] {
					dfs(nb)
				}
				return true
			})
		}
		onPath[tn] = false
		cur = cur[:len(cur)-1]
	}
	dfs(from)
	return out, nil
}

// CountWalks returns the number of temporal walks with exactly k hops
// from `from` to `to` — the quantity the algebraic iterate (A_nᵀ)^k b
// counts (Sec. III-C: (A3ᵀ)³e1 holds 2 in the (3,t3) slot). On acyclic
// snapshots walks and paths coincide. It fails for a `to` outside g.
func CountWalks(g *egraph.IntEvolvingGraph, from, to egraph.TemporalNode,
	mode egraph.CausalMode, k int) (int64, error) {
	if err := checkRoot(g, from); err != nil {
		return 0, err
	}
	if err := checkTarget(g, to); err != nil {
		return 0, err
	}
	if k < 0 {
		return 0, fmt.Errorf("core: negative walk length %d", k)
	}
	size := g.NumNodes() * g.NumStamps()
	cur := make([]int64, size)
	next := make([]int64, size)
	cur[g.TemporalNodeID(from)] = 1
	for step := 0; step < k; step++ {
		for i := range next {
			next[i] = 0
		}
		for id, c := range cur {
			if c == 0 {
				continue
			}
			tn := g.TemporalNodeFromID(id)
			visitNeighbors(g, tn, mode, Forward, func(nb egraph.TemporalNode) bool {
				next[g.TemporalNodeID(nb)] += c
				return true
			})
		}
		cur, next = next, cur
	}
	return cur[g.TemporalNodeID(to)], nil
}

// ShortestPath returns one shortest temporal path from `from` to `to`,
// or nil if `to` is inactive or unreachable. Like BFS it fails for a
// `from` that is inactive or outside g, and it fails for a `to` outside
// g. The parent-tracking search stops with the level that reaches `to`;
// its discovery order up to there is a full search's, so the path is
// the one BFS(…).PathTo(to) would return.
func ShortestPath(g *egraph.IntEvolvingGraph, from, to egraph.TemporalNode,
	mode egraph.CausalMode) (TemporalPath, error) {
	if err := checkRoot(g, from); err != nil {
		return nil, err
	}
	if err := checkTarget(g, to); err != nil {
		return nil, err
	}
	if !g.IsActive(to.Node, to.Stamp) {
		return nil, nil // Def. 4: no temporal path ends at an inactive node
	}
	stop := int32(g.TemporalNodeID(to))
	res, err := search(g, []egraph.TemporalNode{from}, Options{Mode: mode, TrackParents: true}, amortised, stop)
	if err != nil {
		return nil, err
	}
	return TemporalPath(res.PathTo(to)), nil
}
