// Package egraph implements the evolving-graph data structures of
// Chen & Zhang 2016: an evolving graph G_n = ⟨G[1], …, G[n]⟩ is a
// time-ordered sequence of static snapshots. The workhorse type is
// IntEvolvingGraph — dense int node ids, per-stamp CSR adjacency, and
// per-node active-stamp lists — mirroring the IntEvolvingGraph type of
// the authors' EvolvingGraphs.jl. A generic labelled wrapper
// (EvolvingGraph) interns arbitrary comparable node labels.
//
// Terminology follows the paper:
//
//   - A temporal node is a pair (v, t) of a node and a stamp (Def. 2).
//   - (v, t) is active iff some edge of E[t] joins v to a *different*
//     node (Def. 3); self-loops alone do not activate a node and are
//     dropped at build time (they can take part in no temporal path).
//   - Causal edges connect (v, s) to (v, t) for s < t when both are
//     active (proof of Thm. 1). The paper's definition takes all such
//     pairs; CausalConsecutive is a reduced variant for ablations.
package egraph

import (
	"fmt"
	"sort"

	"repro/internal/ds"
)

// TemporalNode identifies a node at a stamp index (not a raw time label).
type TemporalNode struct {
	Node  int32 // dense node id
	Stamp int32 // stamp index in 0..NumStamps()-1
}

func (tn TemporalNode) String() string {
	return fmt.Sprintf("(%d,t%d)", tn.Node, tn.Stamp+1)
}

// CausalMode selects which causal edges connect the same node across
// stamps.
type CausalMode int

const (
	// CausalAllPairs is the paper's definition: every pair s < t of
	// stamps where the node is active yields a causal edge.
	CausalAllPairs CausalMode = iota
	// CausalConsecutive keeps only edges to the next active stamp.
	// Reachability is unchanged; distances can grow (ablation mode).
	CausalConsecutive
)

func (m CausalMode) String() string {
	switch m {
	case CausalAllPairs:
		return "all-pairs"
	case CausalConsecutive:
		return "consecutive"
	default:
		return fmt.Sprintf("CausalMode(%d)", int(m))
	}
}

// snapshot is one static graph G[t] in CSR form (out- and in-adjacency).
type snapshot struct {
	outPtr []int32
	outAdj []int32
	outW   []float64 // nil for unweighted graphs
	inPtr  []int32
	inAdj  []int32
	inW    []float64
	active *ds.BitSet
	edges  int // directed edge count (undirected edges count once)
}

// IntEvolvingGraph is an immutable evolving graph over dense int32 node
// ids 0..NumNodes()-1 and stamp indices 0..NumStamps()-1. Build one with
// a Builder. All query methods are safe for concurrent use.
type IntEvolvingGraph struct {
	directed  bool
	weighted  bool
	times     []int64 // sorted distinct time labels, times[i] labels stamp i
	snaps     []snapshot
	activeAt  [][]int32 // per node: sorted stamp indices where active
	numNodes  int
	numActive int // total active temporal nodes |V|
	csrCache      // lazily built flat CSR view (DESIGN.md §8)
}

// NumNodes returns the size of the node id space N (max id + 1).
func (g *IntEvolvingGraph) NumNodes() int { return g.numNodes }

// NumStamps returns the number of time stamps n.
func (g *IntEvolvingGraph) NumStamps() int { return len(g.snaps) }

// Directed reports whether edges are directed.
func (g *IntEvolvingGraph) Directed() bool { return g.directed }

// Weighted reports whether the graph stores edge weights.
func (g *IntEvolvingGraph) Weighted() bool { return g.weighted }

// TimeLabel returns the user-supplied time label of stamp index t.
func (g *IntEvolvingGraph) TimeLabel(t int) int64 { return g.times[t] }

// TimeLabels returns all labels in stamp order (a copy).
func (g *IntEvolvingGraph) TimeLabels() []int64 {
	return append([]int64(nil), g.times...)
}

// StampOf returns the stamp index of a time label, or -1 if no snapshot
// carries that label.
func (g *IntEvolvingGraph) StampOf(label int64) int {
	i := sort.Search(len(g.times), func(i int) bool { return g.times[i] >= label })
	if i < len(g.times) && g.times[i] == label {
		return i
	}
	return -1
}

// IsActive reports whether temporal node (v, t) is active (Def. 3).
func (g *IntEvolvingGraph) IsActive(v, t int32) bool {
	return g.snaps[t].active.Get(int(v))
}

// ActiveStamps returns the sorted stamp indices at which v is active.
// The slice aliases internal storage and must not be mutated.
func (g *IntEvolvingGraph) ActiveStamps(v int32) []int32 { return g.activeAt[v] }

// NextActiveStamp returns the smallest active stamp of v strictly after
// t, or -1 if none exists.
func (g *IntEvolvingGraph) NextActiveStamp(v, t int32) int32 {
	st := g.activeAt[v]
	i := sort.Search(len(st), func(i int) bool { return st[i] > t })
	if i == len(st) {
		return -1
	}
	return st[i]
}

// PrevActiveStamp returns the largest active stamp of v strictly before
// t, or -1 if none exists.
func (g *IntEvolvingGraph) PrevActiveStamp(v, t int32) int32 {
	st := g.activeAt[v]
	i := sort.Search(len(st), func(i int) bool { return st[i] >= t })
	if i == 0 {
		return -1
	}
	return st[i-1]
}

// ActiveNodes returns the set of nodes active at stamp t.
func (g *IntEvolvingGraph) ActiveNodes(t int) *ds.BitSet { return g.snaps[t].active }

// NumActiveNodes returns |V|, the total number of active temporal nodes.
func (g *IntEvolvingGraph) NumActiveNodes() int { return g.numActive }

// ActiveTemporalNodes returns every active temporal node in stamp-major,
// node-ascending order — the same order as Unfold's Order field, without
// materialising the unfolded adjacency. It is the root enumeration used
// by the all-sources analytics sweeps (DESIGN.md §9).
func (g *IntEvolvingGraph) ActiveTemporalNodes() []TemporalNode {
	out := make([]TemporalNode, 0, g.numActive)
	for t := range g.snaps {
		a := g.snaps[t].active
		for v := a.NextSet(0); v >= 0; v = a.NextSet(v + 1) {
			out = append(out, TemporalNode{Node: int32(v), Stamp: int32(t)})
		}
	}
	return out
}

// OutNeighbors returns the static out-neighbours of v at stamp t. For
// undirected graphs this includes both endpoints' views. The slice
// aliases internal storage and must not be mutated.
func (g *IntEvolvingGraph) OutNeighbors(v, t int32) []int32 {
	s := &g.snaps[t]
	return s.outAdj[s.outPtr[v]:s.outPtr[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors, or nil for
// unweighted graphs.
func (g *IntEvolvingGraph) OutWeights(v, t int32) []float64 {
	s := &g.snaps[t]
	if s.outW == nil {
		return nil
	}
	return s.outW[s.outPtr[v]:s.outPtr[v+1]]
}

// InNeighbors returns the static in-neighbours of v at stamp t (equal to
// OutNeighbors for undirected graphs).
func (g *IntEvolvingGraph) InNeighbors(v, t int32) []int32 {
	s := &g.snaps[t]
	return s.inAdj[s.inPtr[v]:s.inPtr[v+1]]
}

// OutDegree returns the static out-degree of v at stamp t.
func (g *IntEvolvingGraph) OutDegree(v, t int32) int {
	s := &g.snaps[t]
	return int(s.outPtr[v+1] - s.outPtr[v])
}

// StaticEdgeCount returns |Ẽ|: the total number of static edges summed
// over stamps (undirected edges counted once).
func (g *IntEvolvingGraph) StaticEdgeCount() int {
	c := 0
	for i := range g.snaps {
		c += g.snaps[i].edges
	}
	return c
}

// SnapshotEdgeCount returns the number of edges in G[t].
func (g *IntEvolvingGraph) SnapshotEdgeCount(t int) int { return g.snaps[t].edges }

// CausalEdgeCount returns |E′| under the given mode.
func (g *IntEvolvingGraph) CausalEdgeCount(mode CausalMode) int {
	c := 0
	for _, st := range g.activeAt {
		k := len(st)
		if k < 2 {
			continue
		}
		switch mode {
		case CausalAllPairs:
			c += k * (k - 1) / 2
		case CausalConsecutive:
			c += k - 1
		}
	}
	return c
}

// EdgeCount returns |E| = |Ẽ| + |E′| of the unfolded static graph,
// counting undirected static edges twice (they unfold to two arcs).
func (g *IntEvolvingGraph) EdgeCount(mode CausalMode) int {
	static := g.StaticEdgeCount()
	if !g.directed {
		static *= 2
	}
	return static + g.CausalEdgeCount(mode)
}

// HasEdge reports whether the static edge u→v exists at stamp t
// (either direction for undirected graphs). It never panics: any
// endpoint or stamp the graph does not hold, negative ones included,
// answers false — callers resolving stamps from labels (e.g. after an
// ingest fold dropped an emptied stamp, StampOf returns -1) get a
// definitive "no".
func (g *IntEvolvingGraph) HasEdge(u, v, t int32) bool {
	if u < 0 || int(u) >= g.numNodes || v < 0 || int(v) >= g.numNodes ||
		t < 0 || int(t) >= len(g.snaps) {
		return false
	}
	adj := g.OutNeighbors(u, t)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// VisitEdges calls fn for every static edge (u, v) of stamp t, in
// u-major order. For undirected graphs each edge is reported once, with
// u ≤ v. Iteration stops early if fn returns false.
func (g *IntEvolvingGraph) VisitEdges(t int32, fn func(u, v int32, w float64) bool) {
	s := &g.snaps[t]
	for u := int32(0); u < int32(g.numNodes); u++ {
		for p := s.outPtr[u]; p < s.outPtr[u+1]; p++ {
			v := s.outAdj[p]
			if !g.directed && v < u {
				continue // report undirected edges once
			}
			w := 1.0
			if s.outW != nil {
				w = s.outW[p]
			}
			if !fn(u, v, w) {
				return
			}
		}
	}
}

// TemporalNodeID packs (v, t) into a dense id t·N + v, the block-vector
// index used by the algebraic BFS.
func (g *IntEvolvingGraph) TemporalNodeID(tn TemporalNode) int {
	return int(tn.Stamp)*g.numNodes + int(tn.Node)
}

// TemporalNodeFromID is the inverse of TemporalNodeID.
func (g *IntEvolvingGraph) TemporalNodeFromID(id int) TemporalNode {
	return TemporalNode{Node: int32(id % g.numNodes), Stamp: int32(id / g.numNodes)}
}
