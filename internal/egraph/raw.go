package egraph

import (
	"fmt"

	"repro/internal/ds"
)

// Raw is the deconstructed storage of an IntEvolvingGraph: every dense
// slice behind the query surface, exposed so a checkpoint writer can
// persist them verbatim and a reader can reassemble the graph around
// mmap'd sections without re-deriving anything. The slices alias the
// graph's internal storage — treat them as read-only.
type Raw struct {
	Directed  bool
	Weighted  bool
	NumNodes  int
	NumActive int
	Times     []int64
	Snaps     []RawSnapshot
}

// RawSnapshot is the raw storage of one per-stamp snapshot: CSR rows
// over node ids plus the stamp's active-node bitset.
type RawSnapshot struct {
	OutPtr []int32
	OutAdj []int32
	OutW   []float64 // nil for unweighted graphs
	InPtr  []int32
	InAdj  []int32
	InW    []float64
	Active *ds.BitSet
	Edges  int
}

// Raw exports the graph's storage. The result aliases the graph.
func (g *IntEvolvingGraph) Raw() Raw {
	r := Raw{
		Directed:  g.directed,
		Weighted:  g.weighted,
		NumNodes:  g.numNodes,
		NumActive: g.numActive,
		Times:     g.times,
		Snaps:     make([]RawSnapshot, len(g.snaps)),
	}
	for i, s := range g.snaps {
		r.Snaps[i] = RawSnapshot{
			OutPtr: s.outPtr, OutAdj: s.outAdj, OutW: s.outW,
			InPtr: s.inPtr, InAdj: s.inAdj, InW: s.inW,
			Active: s.active, Edges: s.edges,
		}
	}
	return r
}

// FromRaw assembles a graph directly from raw storage, skipping the
// Builder. The caller is responsible for the Builder invariants (sorted
// rows, consistent bitsets, NumActive matching the bitsets); the
// checkpoint reader validates them against the file before calling.
//
// actPtr/actStamps are the flattened per-node active-stamp lists (the
// same layout as CSR.ActPtr/ActStamps); the per-node activeAt rows are
// rebuilt as subslice headers over actStamps, so an mmap'd section
// backs them with no copying. The flat CSR view is not installed:
// EnsureCSR builds it on first use, as for any other graph.
func FromRaw(r Raw, actPtr, actStamps []int32) *IntEvolvingGraph {
	if len(actPtr) != r.NumNodes+1 {
		panic(fmt.Sprintf("egraph: FromRaw: actPtr has %d entries for %d nodes", len(actPtr), r.NumNodes))
	}
	g := &IntEvolvingGraph{
		directed:  r.Directed,
		weighted:  r.Weighted,
		times:     r.Times,
		snaps:     make([]snapshot, len(r.Snaps)),
		activeAt:  make([][]int32, r.NumNodes),
		numNodes:  r.NumNodes,
		numActive: r.NumActive,
	}
	for i, s := range r.Snaps {
		g.snaps[i] = snapshot{
			outPtr: s.OutPtr, outAdj: s.OutAdj, outW: s.OutW,
			inPtr: s.InPtr, inAdj: s.InAdj, inW: s.InW,
			active: s.Active, edges: s.Edges,
		}
	}
	for v := 0; v < r.NumNodes; v++ {
		g.activeAt[v] = actStamps[actPtr[v]:actPtr[v+1]:actPtr[v+1]]
	}
	return g
}
