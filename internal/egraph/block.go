package egraph

import (
	"repro/internal/ds"
	"repro/internal/matrix"
)

// BlockMatrix assembles the block upper-triangular adjacency matrix A_n
// of Sec. III-C: diagonal blocks are the per-stamp one-sided adjacency
// matrices (Eq. 1), off-diagonal causal blocks act implicitly through the
// activity sets. Undirected edges appear in both (i,j) and (j,i) of the
// diagonal blocks, matching the two-arcs-per-edge unfolding of Thm. 1.
func (g *IntEvolvingGraph) BlockMatrix(mode CausalMode) *matrix.Block {
	n := g.numNodes
	diag := make([]*matrix.CSC, g.NumStamps())
	act := make([]*ds.BitSet, g.NumStamps())
	for t := 0; t < g.NumStamps(); t++ {
		coo := matrix.NewCOO(n, n)
		a := g.snaps[t].active
		for vi := a.NextSet(0); vi >= 0; vi = a.NextSet(vi + 1) {
			v := int32(vi)
			for _, w := range g.OutNeighbors(v, int32(t)) {
				coo.Add(int(v), int(w), 1)
			}
		}
		diag[t] = coo.ToCSC()
		act[t] = a.Clone()
	}
	blk := matrix.NewBlock(n, diag, act)
	blk.Consecutive = mode == CausalConsecutive
	return blk
}
