// Package metrics implements the related-work measures the paper
// explicitly contrasts its BFS distance against, plus centrality indices
// built on top of the core BFS:
//
//   - Tang-style temporal distance (refs [4],[8]): the number of time
//     steps, inclusive, needed to reach a node when one static hop may be
//     taken per stamp. The paper's Def. 6 distance counts edges instead.
//   - Grindrod–Higham dynamic-walk distance (refs [9],[10]): static hops
//     cost 1, waiting (causal edges) is free — "causal edges … are only
//     implicitly included in dynamic walks and are not counted toward
//     the length".
//   - Temporal closeness and global efficiency over the evolving graph,
//     computed with the paper's BFS.
//
// Having these executable side by side demonstrates that the three
// distance notions genuinely disagree (see the package tests).
//
// The BFS-backed centralities (TemporalClosenessOpts,
// GlobalEfficiencyOpts) run on the graph's cached flat CSR view by
// default (DESIGN.md §8-9), with GlobalEfficiencyOpts running its one-BFS-per-root sweep 64 roots at a time
// as the bit lanes of core.LaneSweep; Options.UseAdjacencyMaps selects
// the adjacency-map oracle instead. Efficiency sums each root's
// contribution per distance from its level sizes and combines them in
// root order, so results are bit-identical across engines and worker
// counts.
package metrics

import (
	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/egraph"
)

// Options configures the BFS-backed centrality computations. The zero
// value is the default CSR engine under the paper's all-pairs causal
// mode.
type Options struct {
	// Mode selects the causal edge set.
	Mode egraph.CausalMode
	// UseAdjacencyMaps routes the underlying searches through the
	// adjacency-map oracle instead of the flat CSR engine. Kept for
	// differential testing; results are bit-identical.
	UseAdjacencyMaps bool
	// Workers bounds the fan-out of GlobalEfficiencyOpts's lane sweep on
	// the CSR engine; 0 means GOMAXPROCS. The oracle engine is always
	// sequential (matching components.Options), so engine comparisons
	// race the parallel default against the pre-CSR implementation.
	Workers int
}

// Unreachable is returned as a distance when no journey exists.
const Unreachable = -1

// TangTemporalDistance returns the Tang-style temporal distance from
// temporal node (v, t) to node w: the minimum number of stamps, counted
// inclusively from stamp t, needed to reach w when within each stamp a
// frontier may advance by at most one static hop (and waiting in place is
// free). Reaching w at stamp t itself (w == v) costs 1, matching the
// inclusive convention of Tang et al. Returns Unreachable if no journey
// exists.
func TangTemporalDistance(g *egraph.IntEvolvingGraph, from egraph.TemporalNode, w int32) int {
	if from.Node < 0 || int(from.Node) >= g.NumNodes() || w < 0 || int(w) >= g.NumNodes() ||
		from.Stamp < 0 || int(from.Stamp) >= g.NumStamps() {
		return Unreachable
	}
	cur := ds.NewBitSet(g.NumNodes())
	cur.Set(int(from.Node))
	if from.Node == w {
		return 1
	}
	for s := from.Stamp; s < int32(g.NumStamps()); s++ {
		next := cur.Clone() // waiting is free
		for vi := cur.NextSet(0); vi >= 0; vi = cur.NextSet(vi + 1) {
			for _, nb := range g.OutNeighbors(int32(vi), s) {
				next.Set(int(nb))
			}
		}
		if next.Get(int(w)) {
			return int(s-from.Stamp) + 1
		}
		cur = next
	}
	return Unreachable
}

// DynamicWalkDistance returns the Grindrod–Higham style distance from
// `from` to `to`: the minimum number of *static* hops over all temporal
// paths — causal hops are free. Returns Unreachable when no temporal
// path exists.
func DynamicWalkDistance(g *egraph.IntEvolvingGraph, from, to egraph.TemporalNode, mode egraph.CausalMode) (int, error) {
	res, err := core.WeightedShortestPaths(g, from, core.WeightedOptions{Mode: mode, CausalWeight: 0})
	if err != nil {
		return Unreachable, err
	}
	if !res.Reached(to) {
		return Unreachable, nil
	}
	return int(res.Dist(to)), nil
}

// PaperDistance returns the paper's Def. 6 distance (static + causal
// hops), or Unreachable.
func PaperDistance(g *egraph.IntEvolvingGraph, from, to egraph.TemporalNode, mode egraph.CausalMode) (int, error) {
	res, err := core.BFS(g, from, core.Options{Mode: mode})
	if err != nil {
		return Unreachable, err
	}
	return res.Dist(to), nil
}

// TemporalClosenessOpts returns the closeness centrality of an active
// temporal node: Σ 1/d over all temporal nodes at positive distance d
// from it (harmonic convention, so disconnected pairs contribute 0).
// The engine choice flows into the underlying core.BFS. The harmonic
// sum is accumulated in temporal-node id order either way, so both
// engines return bit-identical values.
func TemporalClosenessOpts(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, opts Options) (float64, error) {
	res, err := core.BFS(g, root, core.Options{Mode: opts.Mode, UseAdjacencyMaps: opts.UseAdjacencyMaps})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	res.Visit(func(_ egraph.TemporalNode, d int) bool {
		if d > 0 {
			sum += 1 / float64(d)
		}
		return true
	})
	return sum, nil
}

// EfficiencyStats summarises global temporal-connectivity efficiency.
type EfficiencyStats struct {
	// Efficiency is the mean of 1/d over all ordered pairs of distinct
	// active temporal nodes (0 for unreachable pairs) — the temporal
	// analogue of global network efficiency.
	Efficiency float64
	// ReachableFraction is the fraction of ordered pairs with a
	// temporal path.
	ReachableFraction float64
	// MeanDistance is the mean Def. 6 distance over reachable pairs
	// (0 when no pair is reachable).
	MeanDistance float64
	// Diameter is the largest finite distance.
	Diameter int
}

// GlobalEfficiencyOpts computes EfficiencyStats with one BFS per active
// temporal node (analysis scale). The CSR engine runs the per-root searches 64 at a time as the
// bit lanes of core.LaneSweep, fanned across Workers goroutines; the
// oracle runs one adjacency-map BFS per root. Both keep each root's
// level sizes L_d, from which its contribution is summed per distance
// (Σ L_d/d, Σ d·L_d and Σ L_d over d > 0) and combined in root order,
// so the result is bit-identical across engines and worker counts.
func GlobalEfficiencyOpts(g *egraph.IntEvolvingGraph, opts Options) EfficiencyStats {
	roots := g.ActiveTemporalNodes()
	n := len(roots)
	var st EfficiencyStats
	if n < 2 {
		return st
	}
	levels := make([][]int, n)
	if opts.UseAdjacencyMaps {
		for i, root := range roots {
			res, err := core.BFS(g, root, core.Options{Mode: opts.Mode, UseAdjacencyMaps: true})
			if err != nil {
				continue // unreachable: roots are active by construction
			}
			levels[i] = res.LevelSizes()
		}
	} else {
		// Roots are active by construction, so the sweep cannot fail.
		_ = core.LaneSweep(g, roots, core.Options{Mode: opts.Mode}, opts.Workers, func(b *core.LaneBatch) {
			for l := 0; l < b.Lanes; l++ {
				levels[b.First+l] = b.LevelSizes(l, nil)
			}
		})
	}

	var effSum, distSum float64
	reachable := 0
	for _, lv := range levels {
		eff := 0.0
		for d := 1; d < len(lv); d++ {
			eff += float64(lv[d]) / float64(d)
			distSum += float64(d * lv[d])
			reachable += lv[d]
		}
		effSum += eff
		st.Diameter = max(st.Diameter, len(lv)-1)
	}
	pairs := float64(n * (n - 1))
	st.Efficiency = effSum / pairs
	st.ReachableFraction = float64(reachable) / pairs
	if reachable > 0 {
		st.MeanDistance = distSum / float64(reachable)
	}
	return st
}
