package core

import (
	"errors"

	"repro/internal/egraph"
)

// ErrCyclic is returned by TopologicalOrder when some snapshot contains
// a directed cycle (the unfolded graph is a DAG iff every snapshot is
// acyclic — the graph-side reading of Lemma 1).
var ErrCyclic = errors.New("core: evolving graph has a cyclic snapshot")

// TopologicalOrder returns all active temporal nodes in a topological
// order of the unfolded graph G = (V, E): every static and causal edge
// points from an earlier to a later position. It fails with ErrCyclic if
// any snapshot has a directed cycle.
//
// The stamp-major structure does half the work (causal and cross-stamp
// edges always point to later stamps); within each stamp a Kahn pass
// orders the snapshot's active subgraph.
func TopologicalOrder(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) ([]egraph.TemporalNode, error) {
	var order []egraph.TemporalNode
	for t := 0; t < g.NumStamps(); t++ {
		act := g.ActiveNodes(t)
		// In-degrees within the snapshot.
		indeg := make(map[int32]int)
		for vi := act.NextSet(0); vi >= 0; vi = act.NextSet(vi + 1) {
			v := int32(vi)
			if _, ok := indeg[v]; !ok {
				indeg[v] = 0
			}
			for _, w := range g.OutNeighbors(v, int32(t)) {
				indeg[w]++
			}
		}
		// Kahn: repeatedly emit zero-in-degree nodes, ascending id for
		// determinism.
		var queue []int32
		for vi := act.NextSet(0); vi >= 0; vi = act.NextSet(vi + 1) {
			if indeg[int32(vi)] == 0 {
				queue = append(queue, int32(vi))
			}
		}
		emitted := 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, egraph.TemporalNode{Node: v, Stamp: int32(t)})
			emitted++
			for _, w := range g.OutNeighbors(v, int32(t)) {
				indeg[w]--
				if indeg[w] == 0 {
					queue = append(queue, w)
				}
			}
		}
		if emitted != act.Count() {
			return nil, ErrCyclic
		}
	}
	_ = mode // the order is valid for both causal modes: causal edges go to later stamps
	return order, nil
}

// IsTemporalDAG reports whether every snapshot is acyclic, i.e. the
// unfolded graph is a DAG and A_n is nilpotent (Lemma 1).
func IsTemporalDAG(g *egraph.IntEvolvingGraph) bool {
	_, err := TopologicalOrder(g, egraph.CausalAllPairs)
	return err == nil
}
