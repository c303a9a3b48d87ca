package core

import "repro/internal/egraph"

// Closure is the all-pairs temporal reachability relation: for every
// active temporal node, the set of active temporal nodes it reaches
// (itself included). Rows and columns are indexed by rank in
// g.ActiveTemporalNodes order, which is Unfolding.Order. Rows are held
// 64 at a time as the lane masks of one LaneSweep batch: bit l of
// masks[b·|V| + j] is set iff row 64b+l reaches column j.
type Closure struct {
	g     *egraph.IntEvolvingGraph
	rank  []int32 // by temporal id: rank in active order, -1 if inactive
	masks []uint64
	sizes []int // by rank: the row's reach set size
}

// TransitiveClosure computes Def. 7 reachability between every pair of
// active temporal nodes with one LaneSweep from all of them: each
// batch's final lane masks are its rows. Cost is one all-sources sweep
// plus |V|²/64 words of masks — fine for the analysis scales (citation
// networks), not the Fig. 5 scale.
func TransitiveClosure(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) *Closure {
	roots := g.ActiveTemporalNodes()
	n := len(roots)
	c := &Closure{
		g:     g,
		rank:  make([]int32, g.NumNodes()*g.NumStamps()),
		masks: make([]uint64, (n+laneWidth-1)/laneWidth*n),
		sizes: make([]int, n),
	}
	for i := range c.rank {
		c.rank[i] = -1
	}
	for i, root := range roots {
		c.rank[g.TemporalNodeID(root)] = int32(i)
	}
	// Roots are active by construction, so the sweep cannot fail. Each
	// batch writes only its own rows' masks and sizes.
	_ = LaneSweep(g, roots, Options{Mode: mode}, 0, func(b *LaneBatch) {
		rows := c.masks[b.First/laneWidth*n:][:n]
		for _, id := range b.Reached() {
			rows[c.rank[id]] = b.Mask(id)
		}
		var levels []int
		for l := 0; l < b.Lanes; l++ {
			levels = b.LevelSizes(l, levels[:0])
			for _, size := range levels {
				c.sizes[b.First+l] += size
			}
		}
	})
	return c
}

// rankOf returns tn's rank in active order, or -1 if tn is inactive or
// outside g.
func (c *Closure) rankOf(tn egraph.TemporalNode) int32 {
	if !inGraph(c.g, tn) {
		return -1
	}
	return c.rank[c.g.TemporalNodeID(tn)]
}

// Reaches reports whether a temporal path joins from to to. Inactive
// endpoints, and endpoints outside g, are never reachable.
func (c *Closure) Reaches(from, to egraph.TemporalNode) bool {
	fi, ti := c.rankOf(from), c.rankOf(to)
	if fi < 0 || ti < 0 {
		return false
	}
	return c.masks[int(fi)/laneWidth*len(c.sizes)+int(ti)]>>(fi%laneWidth)&1 != 0
}

// ReachSetSize returns |{w : from ⇝ w}| including from itself, or 0 for
// a node that is inactive or outside g.
func (c *Closure) ReachSetSize(from egraph.TemporalNode) int {
	fi := c.rankOf(from)
	if fi < 0 {
		return 0
	}
	return c.sizes[fi]
}

// ReachablePairs returns the number of ordered pairs (a, b), a ≠ b, with
// a ⇝ b — a global temporal-connectivity index.
func (c *Closure) ReachablePairs() int {
	total := 0
	for _, size := range c.sizes {
		total += size - 1 // exclude self
	}
	return total
}

// Eccentricity and diameter over temporal distances.

// Eccentricity returns the largest finite distance from root, or -1 for
// an inactive root.
func Eccentricity(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, mode egraph.CausalMode) int {
	res, err := BFS(g, root, Options{Mode: mode})
	if err != nil {
		return -1
	}
	return res.MaxDist()
}

// TemporalDiameter returns the largest finite temporal distance between
// any ordered pair of active temporal nodes: the largest eccentricity
// AllSourcesBFS finds.
func TemporalDiameter(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) int {
	diam := 0
	for _, st := range AllSourcesBFS(g, mode, 0) {
		diam = max(diam, st.Eccentricity)
	}
	return diam
}
