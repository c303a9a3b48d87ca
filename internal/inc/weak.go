package inc

import (
	"sort"

	"repro/internal/ds"
	"repro/internal/egraph"
)

// weakRebuild is the from-scratch union-find over g's CSR, mirroring
// components.weakCSR. Consecutive-mode causal links suffice: a node's
// active stamps chain into one set either way, so weak connectivity is
// mode-independent (which the oracle relies on too).
func weakRebuild(g *egraph.IntEvolvingGraph) *ds.UnionFind {
	csr := g.CSR()
	n := int32(csr.N)
	uf := ds.NewUnionFind(csr.Size())
	for id := csr.Active.NextSet(0); id >= 0; id = csr.Active.NextSet(id + 1) {
		for _, nb := range csr.OutArcs(int32(id)) {
			uf.Union(id, int(nb))
		}
		stamps, v := csr.CausalArcs(int32(id), true, true)
		for _, s := range stamps {
			uf.Union(id, int(s*n+v))
		}
	}
	return uf
}

// weakLabels derives the canonical labelling from a union-find: comp
// maps every temporal id to the minimum member id of its component
// (-1 inactive), sizes descending. Root-indexed scratch is reused
// across epochs and left zeroed for the next caller.
func (m *Maintainer) weakLabels(g *egraph.IntEvolvingGraph, uf *ds.UnionFind) (comp []int32, sizes []int, count int) {
	csr := g.CSR()
	size := csr.Size()
	if cap(m.rootLabel) < size {
		m.rootLabel = make([]int32, size)
		m.rootSize = make([]int32, size)
		for i := range m.rootLabel {
			m.rootLabel[i] = -1
		}
	}
	rl, rs := m.rootLabel[:size], m.rootSize[:size]

	comp = make([]int32, size)
	for i := range comp {
		comp[i] = -1
	}
	var roots []int32
	// Ascending id order: the first visit of each root is its minimum
	// member, i.e. the canonical label.
	for id := csr.Active.NextSet(0); id >= 0; id = csr.Active.NextSet(id + 1) {
		r := uf.Find(id)
		if rl[r] < 0 {
			rl[r] = int32(id)
			roots = append(roots, int32(r))
		}
		rs[r]++
		comp[id] = rl[r]
	}
	sizes = make([]int, len(roots))
	for i, r := range roots {
		sizes[i] = int(rs[r])
		rl[r], rs[r] = -1, 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return comp, sizes, len(roots)
}
