package core

import (
	"errors"
	"math"

	"repro/internal/ds"
	"repro/internal/egraph"
)

// WeightedOptions configures the weighted temporal shortest-path search.
type WeightedOptions struct {
	// Mode selects the causal edge set.
	Mode egraph.CausalMode
	// CausalWeight is the cost of one causal hop. The paper's distance
	// counts causal edges as ordinary edges, so the default 1 matches
	// Def. 6 when all static weights are 1. Set 0 to reproduce the
	// dynamic-walk convention in which waiting is free.
	CausalWeight float64
}

// WeightedResult holds weighted shortest-path distances from a root.
type WeightedResult struct {
	g    *egraph.IntEvolvingGraph
	dist []float64 // +Inf = unreachable
}

// Dist returns the weighted distance to (v, t); +Inf if unreachable.
func (r *WeightedResult) Dist(tn egraph.TemporalNode) float64 {
	return r.dist[r.g.TemporalNodeID(tn)]
}

// Reached reports whether (v, t) is reachable from the root.
func (r *WeightedResult) Reached(tn egraph.TemporalNode) bool {
	return !math.IsInf(r.dist[r.g.TemporalNodeID(tn)], 1)
}

// ErrNegativeWeight is returned when Dijkstra encounters a negative edge
// or causal weight.
var ErrNegativeWeight = errors.New("core: negative weight in weighted temporal search")

// WeightedShortestPaths runs Dijkstra's algorithm over the temporal
// forward-neighbour relation: static hops cost the edge weight (1 for
// unweighted graphs), causal hops cost opts.CausalWeight. With unit
// weights and CausalWeight 1 the distances coincide with BFS (Def. 6).
func WeightedShortestPaths(g *egraph.IntEvolvingGraph, root egraph.TemporalNode, opts WeightedOptions) (*WeightedResult, error) {
	if err := checkRoot(g, root); err != nil {
		return nil, err
	}
	if opts.CausalWeight < 0 {
		return nil, ErrNegativeWeight
	}
	size := g.NumNodes() * g.NumStamps()
	r := &WeightedResult{g: g, dist: make([]float64, size)}
	for i := range r.dist {
		r.dist[i] = math.Inf(1)
	}
	rootID := g.TemporalNodeID(root)
	r.dist[rootID] = 0

	done := ds.NewBitSet(size)
	h := ds.NewMinHeap(64)
	h.Push(0, rootID)
	var negErr error
	for h.Len() > 0 {
		d, id := h.Pop()
		if done.TestAndSet(id) {
			continue // stale heap entry
		}
		tn := g.TemporalNodeFromID(id)
		v, t := tn.Node, tn.Stamp

		// Static hops with their weights.
		adj := g.OutNeighbors(v, t)
		ws := g.OutWeights(v, t)
		for i, w := range adj {
			cost := 1.0
			if ws != nil {
				cost = ws[i]
			}
			if cost < 0 {
				negErr = ErrNegativeWeight
				break
			}
			relax(r, h, g.TemporalNodeID(egraph.TemporalNode{Node: w, Stamp: t}), d+cost)
		}
		if negErr != nil {
			break
		}
		// Causal hops.
		visitCausal(g, tn, opts.Mode, func(nb egraph.TemporalNode) {
			relax(r, h, g.TemporalNodeID(nb), d+opts.CausalWeight)
		})
	}
	if negErr != nil {
		return nil, negErr
	}
	return r, nil
}

func relax(r *WeightedResult, h *ds.MinHeap, to int, nd float64) {
	if nd < r.dist[to] {
		r.dist[to] = nd
		h.Push(nd, to)
	}
}

func visitCausal(g *egraph.IntEvolvingGraph, tn egraph.TemporalNode,
	mode egraph.CausalMode, fn func(egraph.TemporalNode)) {
	v, t := tn.Node, tn.Stamp
	switch mode {
	case egraph.CausalAllPairs:
		stamps := g.ActiveStamps(v)
		for i := len(stamps) - 1; i >= 0; i-- {
			s := stamps[i]
			if s <= t {
				break
			}
			fn(egraph.TemporalNode{Node: v, Stamp: s})
		}
	case egraph.CausalConsecutive:
		if s := g.NextActiveStamp(v, t); s >= 0 {
			fn(egraph.TemporalNode{Node: v, Stamp: s})
		}
	}
}
