package egraph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ds"
)

// Builder accumulates time-stamped edges and assembles an immutable
// IntEvolvingGraph. Edges may be added in any time order; stamps are
// sorted and de-duplicated at Build time. Duplicate (u,v,t) edges
// collapse to one (for weighted graphs the last weight wins).
//
// Build uses sorts, not hash maps. The distinct labels go into a sorted
// slice, and a stable counting sort groups the edge indices by stamp.
// Each stamp's CSR then takes a stable counting sort of its arcs by
// tail, a sort of every row by head that keeps the last of a run of
// duplicates, and a scatter of those out-rows into in-rows, which come
// out sorted. A Build makes O(stamps) allocations, not O(nodes·stamps).
// It never reorders the recorded edges, so a Builder can be extended
// and built again.
type Builder struct {
	directed bool
	weighted bool
	edges    []rawEdge
	maxNode  int32
}

type rawEdge struct {
	u, v int32
	t    int64
	w    float64
}

// NewBuilder returns a Builder for a directed or undirected, unweighted
// evolving graph.
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed, maxNode: -1}
}

// NewWeightedBuilder returns a Builder whose edges carry float64 weights.
func NewWeightedBuilder(directed bool) *Builder {
	return &Builder{directed: directed, weighted: true, maxNode: -1}
}

// AddEdge records the edge u→v (u—v if undirected) at time label t with
// weight 1. Self-loops are dropped (Def. 3: they activate nothing and can
// appear in no temporal path).
func (b *Builder) AddEdge(u, v int32, t int64) { b.AddWeightedEdge(u, v, t, 1) }

// AddWeightedEdge records the edge u→v at time label t with weight w.
func (b *Builder) AddWeightedEdge(u, v int32, t int64, w float64) {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("egraph: negative node id (%d,%d)", u, v))
	}
	if u == v {
		return
	}
	if u > b.maxNode {
		b.maxNode = u
	}
	if v > b.maxNode {
		b.maxNode = v
	}
	b.edges = append(b.edges, rawEdge{u: u, v: v, t: t, w: w})
}

// Build assembles the immutable graph. The Builder may be reused
// afterwards (its edge list is not consumed).
func (b *Builder) Build() *IntEvolvingGraph {
	n := int(b.maxNode) + 1
	times, stampOf := b.stamps()

	// Counting-sort the edge indices by stamp: stamp s holds
	// order[start[s]:start[s+1]]. Stability keeps each stamp's edges in
	// insertion order, which is what lets the last weight win.
	start := make([]int32, len(times)+2)
	for _, s := range stampOf {
		start[s+2]++
	}
	maxEdges := int32(0)
	for s := 2; s < len(start); s++ {
		maxEdges = max(maxEdges, start[s])
		start[s] += start[s-1]
	}
	order := make([]int32, len(b.edges))
	for i, s := range stampOf {
		order[start[s+1]] = int32(i)
		start[s+1]++
	}

	g := &IntEvolvingGraph{
		directed: b.directed,
		weighted: b.weighted,
		times:    times,
		snaps:    make([]snapshot, len(times)),
		numNodes: n,
	}
	sb := newStampBuilder(n, b.directed, b.weighted)
	stampEdges := make([]rawEdge, 0, maxEdges)
	for s := range g.snaps {
		stampEdges = stampEdges[:0]
		for _, i := range order[start[s]:start[s+1]] {
			stampEdges = append(stampEdges, b.edges[i])
		}
		g.snaps[s] = sb.build(stampEdges)
	}
	g.activeAt, g.numActive = activeRows(g.snaps, n)
	return g
}

// stamps returns the distinct time labels of the recorded edges,
// sorted, and the stamp index of every edge. Labels that span fewer
// values than there are edges are ranked through a direct-address
// table; sparser ones are sorted and binary-searched.
func (b *Builder) stamps() (times []int64, stampOf []int32) {
	stampOf = make([]int32, len(b.edges))
	if len(b.edges) == 0 {
		return []int64{}, stampOf
	}
	lo, hi := b.edges[0].t, b.edges[0].t
	for i := range b.edges {
		lo, hi = min(lo, b.edges[i].t), max(hi, b.edges[i].t)
	}
	if span := uint64(hi - lo); span < uint64(len(b.edges)) {
		rank := make([]int32, span+1) // 1 where a label occurs, then its stamp
		for i := range b.edges {
			rank[b.edges[i].t-lo] = 1
		}
		times = []int64{}
		for j, seen := range rank {
			if seen != 0 {
				rank[j] = int32(len(times))
				times = append(times, lo+int64(j))
			}
		}
		for i := range b.edges {
			stampOf[i] = rank[b.edges[i].t-lo]
		}
		return times, stampOf
	}
	all := make([]int64, len(b.edges))
	for i := range b.edges {
		all[i] = b.edges[i].t
	}
	slices.Sort(all)
	times = slices.Clone(slices.Compact(all))
	for i := range b.edges {
		s, _ := slices.BinarySearch(times, b.edges[i].t)
		stampOf[i] = int32(s)
	}
	return times, stampOf
}

// stampBuilder assembles single-stamp snapshots over n nodes. Its
// scratch is reused from one stamp to the next.
type stampBuilder struct {
	n                  int
	directed, weighted bool
	ptr                []int32 // n+2 row offsets of the grouped arcs
	heads              []int32 // unweighted arcs grouped by tail
	arcs               []nbrW  // weighted arcs grouped by tail
}

func newStampBuilder(n int, directed, weighted bool) *stampBuilder {
	return &stampBuilder{n: n, directed: directed, weighted: weighted, ptr: make([]int32, n+2)}
}

// build returns the snapshot of one stamp's edges, given in insertion
// order. An undirected edge puts both of its arcs. Duplicate arcs
// collapse to one carrying the last weight, as do the two orientations
// of an undirected edge. Node ids must be below n.
func (sb *stampBuilder) build(edges []rawEdge) snapshot {
	n, ptr := sb.n, sb.ptr
	// Stable counting sort by tail: after the scatter, row u of the
	// grouped arcs is [ptr[u], ptr[u+1]).
	clear(ptr)
	for i := range edges {
		ptr[edges[i].u+2]++
		if !sb.directed {
			ptr[edges[i].v+2]++
		}
	}
	for u := 1; u < len(ptr); u++ {
		ptr[u] += ptr[u-1]
	}
	arcs := int(ptr[n+1])

	// Sort each row by head and keep the last of every run, compacting
	// the rows to the front of the scratch as they shrink.
	outPtr := make([]int32, n+1)
	var outAdj []int32
	var outW []float64
	if sb.weighted {
		sb.arcs = slices.Grow(sb.arcs[:0], arcs)[:arcs]
		grouped := sb.arcs
		for i := range edges {
			e := &edges[i]
			grouped[ptr[e.u+1]] = nbrW{e.v, e.w}
			ptr[e.u+1]++
			if !sb.directed {
				grouped[ptr[e.v+1]] = nbrW{e.u, e.w}
				ptr[e.v+1]++
			}
		}
		k := 0
		for u := 0; u < n; u++ {
			row := grouped[ptr[u]:ptr[u+1]]
			slices.SortStableFunc(row, func(a, b nbrW) int { return cmp.Compare(a.nbr, b.nbr) })
			k += copy(grouped[k:], lastOfRuns(row))
			outPtr[u+1] = int32(k)
		}
		outAdj, outW = make([]int32, k), make([]float64, k)
		for p, a := range grouped[:k] {
			outAdj[p], outW[p] = a.nbr, a.w
		}
	} else {
		sb.heads = slices.Grow(sb.heads[:0], arcs)[:arcs]
		grouped := sb.heads
		for i := range edges {
			e := &edges[i]
			grouped[ptr[e.u+1]] = e.v
			ptr[e.u+1]++
			if !sb.directed {
				grouped[ptr[e.v+1]] = e.u
				ptr[e.v+1]++
			}
		}
		k := 0
		for u := 0; u < n; u++ {
			row := grouped[ptr[u]:ptr[u+1]]
			slices.Sort(row)
			k += copy(grouped[k:], slices.Compact(row))
			outPtr[u+1] = int32(k)
		}
		outAdj = slices.Clone(grouped[:k])
	}

	// Scatter the u-major out-rows into in-rows: every in-row receives
	// its tails in ascending order, so it needs no sort of its own.
	inPtr := make([]int32, n+1)
	for _, v := range outAdj {
		inPtr[v+1]++
	}
	for v := 0; v < n; v++ {
		inPtr[v+1] += inPtr[v]
	}
	inAdj := make([]int32, len(outAdj))
	var inW []float64
	if sb.weighted {
		inW = make([]float64, len(outAdj))
	}
	next := ptr[:n]
	copy(next, inPtr)
	active := ds.NewBitSet(n)
	for u := 0; u < n; u++ {
		for p := outPtr[u]; p < outPtr[u+1]; p++ {
			v := outAdj[p]
			inAdj[next[v]] = int32(u)
			if inW != nil {
				inW[next[v]] = outW[p]
			}
			next[v]++
		}
	}
	for v := 0; v < n; v++ {
		if outPtr[v+1] > outPtr[v] || inPtr[v+1] > inPtr[v] {
			active.Set(v)
		}
	}
	edgeCount := len(outAdj)
	if !sb.directed {
		edgeCount /= 2
	}
	return snapshot{
		outPtr: outPtr, outAdj: outAdj, outW: outW,
		inPtr: inPtr, inAdj: inAdj, inW: inW,
		active: active, edges: edgeCount,
	}
}

// lastOfRuns compacts a row sorted stably by head to one arc per head,
// keeping the last of each run: the weight added last wins.
func lastOfRuns(row []nbrW) []nbrW {
	k := 0
	for i := range row {
		if i+1 < len(row) && row[i+1].nbr == row[i].nbr {
			continue
		}
		row[k] = row[i]
		k++
	}
	return row[:k]
}

// activeRows returns every node's sorted active stamps as capped
// sub-slices of one array, nil for a node never active, and their total
// |V|.
func activeRows(snaps []snapshot, n int) ([][]int32, int) {
	ptr := make([]int32, n+2)
	for s := range snaps {
		act := snaps[s].active
		for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
			ptr[v+2]++
		}
	}
	for v := 1; v < len(ptr); v++ {
		ptr[v] += ptr[v-1]
	}
	stamps := make([]int32, ptr[n+1])
	for s := range snaps {
		act := snaps[s].active
		for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
			stamps[ptr[v+1]] = int32(s)
			ptr[v+1]++
		}
	}
	rows := make([][]int32, n)
	for v := range rows {
		if lo, hi := ptr[v], ptr[v+1]; hi > lo {
			rows[v] = stamps[lo:hi:hi]
		}
	}
	return rows, len(stamps)
}
