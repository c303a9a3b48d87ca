package core

import "repro/internal/egraph"

// SourceStats summarises one source's BFS for the all-sources sweep.
type SourceStats struct {
	Root         egraph.TemporalNode
	Reached      int     // temporal nodes reached, root included
	Eccentricity int     // largest finite distance
	Closeness    float64 // Σ 1/d over reached nodes at d > 0
}

// AllSourcesBFS runs one BFS from every active temporal node, 64 per
// pass of LaneSweep over workers goroutines (≤ 0 means GOMAXPROCS), and
// returns per-source statistics in g.ActiveTemporalNodes order. It is
// the building block for diameters, closeness rankings and reachability
// profiles at analysis scale. Closeness is summed per distance, Σ_d
// L_d/d over the level sizes L_d, so it can differ from a sum over
// reached nodes in the last bits.
func AllSourcesBFS(g *egraph.IntEvolvingGraph, mode egraph.CausalMode, workers int) []SourceStats {
	roots := g.ActiveTemporalNodes()
	out := make([]SourceStats, len(roots))
	// Roots are active by construction, so the sweep cannot fail.
	_ = LaneSweep(g, roots, Options{Mode: mode}, workers, func(b *LaneBatch) {
		var levels []int
		for l := 0; l < b.Lanes; l++ {
			levels = b.LevelSizes(l, levels[:0])
			st := SourceStats{Root: roots[b.First+l], Eccentricity: len(levels) - 1}
			for d, size := range levels {
				st.Reached += size
				if d > 0 {
					st.Closeness += float64(size) / float64(d)
				}
			}
			out[b.First+l] = st
		}
	})
	return out
}
