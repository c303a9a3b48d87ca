// Package core implements the paper's primary contribution: breadth-first
// search over evolving graphs (Algorithm 1 of Chen & Zhang 2016) and its
// variants — backward (time-reversed) search, bounded-depth and
// multi-source search, a level-synchronous parallel BFS, temporal-path
// enumeration and counting, and weighted temporal shortest paths.
//
// The search explores forward neighbours in both space and time: from an
// active temporal node (v, t) it may follow a static edge (v, w) ∈ E[t]
// to (w, t), or a causal edge to (v, t′) for a later stamp t′ where v is
// active. Distances count both kinds of hops (Def. 6), which is what
// distinguishes the paper's formulation from dynamic walks
// (Grindrod–Higham) and temporal distance (Tang et al.); see
// internal/metrics for those baselines.
package core

import (
	"errors"
	"fmt"

	"repro/internal/ds"
	"repro/internal/egraph"
)

// Direction selects the time orientation of a search.
type Direction int

const (
	// Forward searches along edges and forward in time (influence:
	// everything the root can reach).
	Forward Direction = iota
	// Backward searches against edges and backward in time
	// (provenance: everything that can reach the root). Equivalent to
	// a Forward search on g.TimeReverse().
	Backward
)

func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// Options configures a BFS run. The zero value is the paper's Algorithm 1:
// forward direction, all-pairs causal edges, unbounded depth.
type Options struct {
	// Mode selects the causal edge set (Def. of E′ vs the consecutive
	// ablation). Reachability is identical in both; distances differ.
	Mode egraph.CausalMode
	// Direction selects forward (influence) or backward (provenance).
	Direction Direction
	// ReverseEdges flips the sense of static edges while keeping the
	// time orientation of Direction. Citation networks need this: an
	// edge i→j means "i cites j", so influence flows j→i forward in
	// time (Forward + ReverseEdges), and the authors that influenced i
	// are found by Backward + ReverseEdges (Sec. V).
	ReverseEdges bool
	// MaxDepth, if positive, stops the search after that many levels;
	// temporal nodes further away are left unreached.
	MaxDepth int
	// TrackParents records one BFS-tree parent per reached node so
	// shortest temporal paths can be reconstructed.
	TrackParents bool
	// UseAdjacencyMaps routes the search through the original
	// per-stamp adjacency traversal (visitNeighbors over OutNeighbors /
	// ActiveStamps with per-visit searches) instead of the flat
	// CSR/bitset engine (DESIGN.md §8). The two produce identical
	// results; the slower path is kept as a differential-testing oracle
	// and as an escape hatch for huge graphs where materialising the
	// CSR view is undesirable.
	UseAdjacencyMaps bool
}

// ErrInactiveRoot is returned when the search root is an inactive
// temporal node. By Def. 4, every temporal path from an inactive node is
// the empty sequence, so the search is vacuous; asking for it is almost
// always a caller bug.
var ErrInactiveRoot = errors.New("core: BFS root is not an active temporal node")

// Result holds the outcome of a BFS: the reached dictionary of
// Algorithm 1, stored densely by temporal-node id, plus optional parents.
type Result struct {
	g       *egraph.IntEvolvingGraph
	root    egraph.TemporalNode
	opts    Options
	dist    []int32 // -1 = unreached, else distance from root
	parent  []int32 // temporal-node id of BFS-tree parent, -1 at root/unreached
	reached int     // number of reached temporal nodes (including root)
	levels  []int   // levels[k] = number of nodes at distance k

	bitmapLevels int // levels the CSR engine expanded on bitmaps
	work         int // static and causal arcs the CSR engine examined plus bitmap words it scanned
}

// Root returns the search root.
func (r *Result) Root() egraph.TemporalNode { return r.root }

// Reached reports whether (v, t) was reached (Def. 7 reachability).
func (r *Result) Reached(tn egraph.TemporalNode) bool {
	return r.dist[r.g.TemporalNodeID(tn)] >= 0
}

// Dist returns the distance (Def. 6) from the root to (v, t), or -1 if
// it is unreachable.
func (r *Result) Dist(tn egraph.TemporalNode) int {
	return int(r.dist[r.g.TemporalNodeID(tn)])
}

// NumReached returns the number of reached temporal nodes, root included.
func (r *Result) NumReached() int { return r.reached }

// MaxDist returns the eccentricity of the root: the largest finite
// distance discovered.
func (r *Result) MaxDist() int { return len(r.levels) - 1 }

// LevelSizes returns the number of temporal nodes at each distance
// 0..MaxDist (a copy).
func (r *Result) LevelSizes() []int { return append([]int(nil), r.levels...) }

// Parent returns the BFS-tree parent of (v, t). ok is false at the root,
// at unreached nodes, or when the search did not track parents.
func (r *Result) Parent(tn egraph.TemporalNode) (parent egraph.TemporalNode, ok bool) {
	if r.parent == nil {
		return egraph.TemporalNode{}, false
	}
	p := r.parent[r.g.TemporalNodeID(tn)]
	if p < 0 {
		return egraph.TemporalNode{}, false
	}
	return r.g.TemporalNodeFromID(int(p)), true
}

// Visit calls fn for every reached temporal node with its distance, in
// ascending temporal-node id order — equivalently stamp-major,
// node-ascending. That order is a documented guarantee: the analytics
// layer relies on it both for sorted output (components.OutComponent)
// and for engine-independent floating-point accumulation order
// (metrics closeness/efficiency, DESIGN.md §9). Iteration stops early
// if fn returns false.
func (r *Result) Visit(fn func(tn egraph.TemporalNode, dist int) bool) {
	n := r.g.NumNodes()
	for t := 0; t < r.g.NumStamps(); t++ {
		for v, d := range r.dist[t*n : (t+1)*n] {
			if d >= 0 && !fn(egraph.TemporalNode{Node: int32(v), Stamp: int32(t)}, int(d)) {
				return
			}
		}
	}
}

// DistinctNodes returns the number of distinct nodes v with some (v, t)
// reached: the search's reach in the static node set.
func (r *Result) DistinctNodes() int {
	n := r.g.NumNodes()
	seen := ds.NewBitSet(n)
	for t := 0; t < r.g.NumStamps(); t++ {
		for v, d := range r.dist[t*n : (t+1)*n] {
			if d >= 0 {
				seen.Set(v)
			}
		}
	}
	return seen.Count()
}

// ReachedNodes returns all reached temporal nodes (root included) in
// unspecified order.
func (r *Result) ReachedNodes() []egraph.TemporalNode {
	out := make([]egraph.TemporalNode, 0, r.reached)
	r.Visit(func(tn egraph.TemporalNode, _ int) bool {
		out = append(out, tn)
		return true
	})
	return out
}

// PathTo reconstructs a shortest temporal path from the root to (v, t)
// as a sequence of temporal nodes (root first). It returns nil if the
// target is unreached or parents were not tracked.
func (r *Result) PathTo(tn egraph.TemporalNode) []egraph.TemporalNode {
	if r.parent == nil || !r.Reached(tn) {
		return nil
	}
	var rev []egraph.TemporalNode
	cur := tn
	for {
		rev = append(rev, cur)
		if cur == r.root {
			break
		}
		p := r.parent[r.g.TemporalNodeID(cur)]
		cur = r.g.TemporalNodeFromID(int(p))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// BFS runs Algorithm 1 from root under opts and returns the reached
// dictionary. The root must be an active temporal node of g.
//
// By default the search runs on the flat CSR/bitset engine (DESIGN.md
// §8). A level whose frontier holds at least one temporal node per word
// of the id space's stamp rows runs on bitmaps: causal arcs are claimed
// a word at a time, and static arcs bottom-up by bit test once the
// frontier outnumbers what is left to claim. Set
// Options.UseAdjacencyMaps to traverse the per-stamp adjacency directly
// instead. Distances, parents and level sizes are identical either way.
func BFS(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, opts Options) (*Result, error) {
	return search(g, []egraph.TemporalNode{root}, opts, amortised, noStop)
}

// search runs one BFS from a non-empty root set, with rule choosing how
// each CSR-engine level runs. Unless stop is noStop, the CSR
// engine ends the search with the level that reaches temporal-node id
// stop; the map engine ignores it.
func search(g *egraph.IntEvolvingGraph, roots []egraph.TemporalNode, opts Options, rule levelRule, stop int32) (*Result, error) {
	for _, root := range roots {
		if err := checkRoot(g, root); err != nil {
			return nil, err
		}
	}
	r := newResult(g, roots[0], opts)
	seeds := make([]int32, 0, 1) // constant capacity: a single root stays off the heap
	for _, root := range roots {
		id := g.TemporalNodeID(root)
		if r.dist[id] == 0 {
			continue // duplicate root
		}
		r.dist[id] = 0
		r.reached++
		seeds = append(seeds, int32(id))
	}
	r.levels = []int{len(seeds)}
	if opts.UseAdjacencyMaps {
		runReference(g, r, seeds, opts)
	} else {
		runCSR(g, r, seeds, opts, rule, stop)
	}
	return r, nil
}

// runReference is the original adjacency-map engine: frontier expansion
// through visitNeighborsOpts, with per-visit stamp searches. Kept as the
// differential-testing oracle for the CSR engine.
func runReference(g *egraph.IntEvolvingGraph, r *Result, seeds []int32, opts Options) {
	frontier := append([]int32(nil), seeds...)
	var next []int32
	k := int32(1)
	for len(frontier) > 0 {
		if opts.MaxDepth > 0 && int(k) > opts.MaxDepth {
			break
		}
		next = next[:0]
		for _, id := range frontier {
			tn := g.TemporalNodeFromID(int(id))
			visitNeighborsOpts(g, tn, opts, func(nb egraph.TemporalNode) bool {
				nbID := g.TemporalNodeID(nb)
				if r.dist[nbID] < 0 {
					r.dist[nbID] = k
					if r.parent != nil {
						r.parent[nbID] = id
					}
					r.reached++
					next = append(next, int32(nbID))
				}
				return true
			})
		}
		if len(next) > 0 {
			r.levels = append(r.levels, len(next))
		}
		frontier, next = next, frontier
		k++
	}
}

func checkRoot(g *egraph.IntEvolvingGraph, root egraph.TemporalNode) error {
	if !inGraph(g, root) {
		return fmt.Errorf("core: root %v outside graph with %d nodes, %d stamps",
			root, g.NumNodes(), g.NumStamps())
	}
	if !g.IsActive(root.Node, root.Stamp) {
		return ErrInactiveRoot
	}
	return nil
}

// inGraph reports whether tn names a temporal node of g, active or not.
func inGraph(g *egraph.IntEvolvingGraph, tn egraph.TemporalNode) bool {
	return tn.Node >= 0 && int(tn.Node) < g.NumNodes() &&
		tn.Stamp >= 0 && int(tn.Stamp) < g.NumStamps()
}

func newResult(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, opts Options) *Result {
	size := g.NumNodes() * g.NumStamps()
	r := &Result{g: g, root: root, opts: opts, dist: make([]int32, size)}
	for i := range r.dist {
		r.dist[i] = -1
	}
	if opts.TrackParents {
		r.parent = make([]int32, size)
		for i := range r.parent {
			r.parent[i] = -1
		}
	}
	return r
}

// visitNeighbors enumerates the forward (or backward) neighbours of an
// active temporal node: static neighbours at the same stamp, then causal
// neighbours of the same node at other stamps. Iteration stops early if
// fn returns false.
func visitNeighbors(g *egraph.IntEvolvingGraph, tn egraph.TemporalNode,
	mode egraph.CausalMode, dir Direction, fn func(egraph.TemporalNode) bool) {
	visitNeighborsOpts(g, tn, Options{Mode: mode, Direction: dir}, fn)
}

// visitNeighborsOpts is visitNeighbors with the full option set
// (honouring ReverseEdges).
func visitNeighborsOpts(g *egraph.IntEvolvingGraph, tn egraph.TemporalNode,
	opts Options, fn func(egraph.TemporalNode) bool) {

	mode, dir := opts.Mode, opts.Direction
	v, t := tn.Node, tn.Stamp
	var static []int32
	if (dir == Forward) != opts.ReverseEdges {
		static = g.OutNeighbors(v, t)
	} else {
		static = g.InNeighbors(v, t)
	}
	for _, w := range static {
		if !fn(egraph.TemporalNode{Node: w, Stamp: t}) {
			return
		}
	}
	switch mode {
	case egraph.CausalAllPairs:
		stamps := g.ActiveStamps(v)
		if dir == Forward {
			for i := len(stamps) - 1; i >= 0; i-- {
				s := stamps[i]
				if s <= t {
					break
				}
				if !fn(egraph.TemporalNode{Node: v, Stamp: s}) {
					return
				}
			}
		} else {
			for _, s := range stamps {
				if s >= t {
					break
				}
				if !fn(egraph.TemporalNode{Node: v, Stamp: s}) {
					return
				}
			}
		}
	case egraph.CausalConsecutive:
		var s int32
		if dir == Forward {
			s = g.NextActiveStamp(v, t)
		} else {
			s = g.PrevActiveStamp(v, t)
		}
		if s >= 0 {
			if !fn(egraph.TemporalNode{Node: v, Stamp: s}) {
				return
			}
		}
	}
}

// ForwardNeighbors returns the forward neighbours (Def. 5) of an active
// temporal node under the given causal mode. The root of every length-2
// temporal path from (v, t) appears exactly once.
func ForwardNeighbors(g *egraph.IntEvolvingGraph, tn egraph.TemporalNode, mode egraph.CausalMode) []egraph.TemporalNode {
	var out []egraph.TemporalNode
	visitNeighbors(g, tn, mode, Forward, func(nb egraph.TemporalNode) bool {
		out = append(out, nb)
		return true
	})
	return out
}

// BackwardNeighbors returns the temporal nodes of which (v, t) is a
// forward neighbour.
func BackwardNeighbors(g *egraph.IntEvolvingGraph, tn egraph.TemporalNode, mode egraph.CausalMode) []egraph.TemporalNode {
	var out []egraph.TemporalNode
	visitNeighbors(g, tn, mode, Backward, func(nb egraph.TemporalNode) bool {
		out = append(out, nb)
		return true
	})
	return out
}

// MultiSourceBFS runs one BFS from a set of roots simultaneously: every
// root has distance 0 and each temporal node's distance is its distance
// to the nearest root. All roots must be active.
func MultiSourceBFS(g *egraph.IntEvolvingGraph, roots []egraph.TemporalNode, opts Options) (*Result, error) {
	if len(roots) == 0 {
		return nil, errors.New("core: MultiSourceBFS needs at least one root")
	}
	return search(g, roots, opts, amortised, noStop)
}

// Reachable reports whether (w, s) is reachable from (v, t) (Def. 7),
// i.e. a temporal path joins them. It early-exits as soon as the target
// is claimed.
func Reachable(g *egraph.IntEvolvingGraph, from, to egraph.TemporalNode, mode egraph.CausalMode) (bool, error) {
	if err := checkRoot(g, from); err != nil {
		return false, err
	}
	if from == to {
		return true, nil
	}
	size := g.NumNodes() * g.NumStamps()
	seen := ds.NewBitSet(size)
	seen.Set(g.TemporalNodeID(from))
	q := ds.NewIntQueue(64)
	q.Push(g.TemporalNodeID(from))
	found := false
	for !q.Empty() && !found {
		tn := g.TemporalNodeFromID(q.Pop())
		visitNeighbors(g, tn, mode, Forward, func(nb egraph.TemporalNode) bool {
			if nb == to {
				found = true
				return false
			}
			id := g.TemporalNodeID(nb)
			if !seen.TestAndSet(id) {
				q.Push(id)
			}
			return true
		})
	}
	return found, nil
}
