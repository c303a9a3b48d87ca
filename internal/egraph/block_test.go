package egraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockMatrixFigure1(t *testing.T) {
	g := Figure1Graph()
	blk := g.BlockMatrix(CausalAllPairs)
	if blk.Stamps() != 3 || blk.Nodes() != 3 {
		t.Fatalf("block dims = (%d,%d)", blk.Stamps(), blk.Nodes())
	}
	// Diagonal blocks are the paper's per-stamp adjacency matrices.
	if blk.Diag(0).At(0, 1) != 1 || blk.Diag(0).NNZ() != 1 {
		t.Fatal("A[t1] wrong")
	}
	if blk.Diag(1).At(0, 2) != 1 || blk.Diag(1).NNZ() != 1 {
		t.Fatal("A[t2] wrong")
	}
	if blk.Diag(2).At(1, 2) != 1 || blk.Diag(2).NNZ() != 1 {
		t.Fatal("A[t3] wrong")
	}
	// Activity propagated.
	if !blk.IsActive(0, 0) || blk.IsActive(2, 0) {
		t.Fatal("block activity wrong")
	}
}

// Property: the compacted block matrix has exactly EdgeCount nonzeros
// (each unfolded arc is one entry) over NumActiveNodes rows.
func TestBlockMatrixMatchesUnfold(t *testing.T) {
	f := func(seed int64, directed, consecutive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGraph(rng, directed)
		mode := CausalAllPairs
		if consecutive {
			mode = CausalConsecutive
		}
		dense, order := g.BlockMatrix(mode).CompactActive()
		if len(order) != g.NumActiveNodes() {
			return false
		}
		return dense.NNZ() == g.EdgeCount(mode)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
