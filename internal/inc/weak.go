package inc

import (
	"fmt"
	"sort"

	"repro/internal/components"
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

// matchWeak checks a maintained partition against the oracle's
// component list: identical member sets under the canonical labelling
// (each oracle component's first member is its minimum id — members
// are stamp-major sorted), identical sizes.
func matchWeak(r *Results, g *egraph.IntEvolvingGraph, oracle []components.Component) error {
	if len(oracle) != r.WeakCount {
		return fmt.Errorf("component count: maintained %d, oracle %d", r.WeakCount, len(oracle))
	}
	sizes := make([]int, len(oracle))
	total := 0
	for i, comp := range oracle {
		sizes[i] = len(comp)
		total += len(comp)
		label := int32(int(comp[0].Stamp)*r.n + int(comp[0].Node))
		for _, tn := range comp {
			id := int(tn.Stamp)*r.n + int(tn.Node)
			if id < 0 || id >= len(r.comp) {
				return fmt.Errorf("oracle member (%d,%d) out of maintained range", tn.Node, tn.Stamp)
			}
			if r.comp[id] != label {
				return fmt.Errorf("member (%d,%d): maintained label %d, oracle %d",
					tn.Node, tn.Stamp, r.comp[id], label)
			}
		}
	}
	labelled := 0
	for _, c := range r.comp {
		if c >= 0 {
			labelled++
		}
	}
	if labelled != total {
		return fmt.Errorf("labelled %d temporal nodes, oracle covers %d", labelled, total)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) != len(r.WeakSizes) {
		return fmt.Errorf("size list length: maintained %d, oracle %d", len(r.WeakSizes), len(sizes))
	}
	for i := range sizes {
		if sizes[i] != r.WeakSizes[i] {
			return fmt.Errorf("size[%d]: maintained %d, oracle %d", i, r.WeakSizes[i], sizes[i])
		}
	}
	return nil
}
