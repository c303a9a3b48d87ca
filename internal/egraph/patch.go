package egraph

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/ds"
)

// ArcDelta is one arc-level mutation consumed by Patch: insert (Del
// false) or remove (Del true) the arc U→V — the edge U—V when the base
// graph is undirected — at time label T. W is the weight an insertion
// carries on weighted graphs; it is ignored on removals, on unweighted
// graphs, and when the arc already exists in base (a re-add keeps
// base's weight, the same rule as the full ingest.Fold rebuild).
type ArcDelta struct {
	U, V int32
	T    int64
	W    float64
	Del  bool
}

// patchKey identifies one canonical arc of the delta; undirected arcs
// are stored with u < v so (u,v) and (v,u) collide.
type patchKey struct {
	u, v int32
	t    int64
}

// stampOp is one surviving (post last-wins) canonical arc change at a
// single time label.
type stampOp struct {
	u, v int32
	w    float64
	del  bool
}

// Patch applies delta to base by copy-on-write and returns the
// resulting immutable graph. It is the delta-proportional alternative
// to replaying every base edge through a Builder (DESIGN.md §12):
//
//   - Only stamps actually changed by the delta get their snapshot CSR
//     rows rebuilt — and that rebuild is a merge-copy of the old rows,
//     not a hash-map reconstruction. Untouched snapshots, per-node
//     active-stamp rows and weight slices are shared with base by
//     reference, which is safe because an IntEvolvingGraph is
//     immutable.
//   - Ops are collapsed last-wins per canonical arc, exactly like the
//     full rebuild: re-adding an arc base already has keeps base's
//     weight, removing an absent arc is a no-op, and a label unknown to
//     base materialises as a new stamp only if at least one insertion
//     survives for it.
//   - The node universe grows to cover surviving insertions and
//     shrinks when the top of the id space loses its last edge, both
//     matching what a Builder replay would produce.
//
// Patch is pure (base is never mutated) and deterministic. An empty or
// fully no-op delta returns base itself — no slice is copied at all.
// The result's flat CSR view is not built; the ingest compactor builds
// it explicitly (EnsureCSR) into a recycled arena.
func Patch(base *IntEvolvingGraph, delta []ArcDelta) *IntEvolvingGraph {
	if len(delta) == 0 {
		return base
	}
	n0 := base.numNodes

	// Last op per canonical arc wins — the same collapse rule as the
	// full rebuild's delta map.
	type finalOp struct {
		del bool
		w   float64
	}
	final := make(map[patchKey]finalOp, len(delta))
	for _, d := range delta {
		if d.U < 0 || d.V < 0 {
			panic(fmt.Sprintf("egraph: negative node id (%d,%d) in Patch delta", d.U, d.V))
		}
		if d.U == d.V {
			continue // self-loops activate nothing (Def. 3); Builder drops them too
		}
		k := patchKey{u: d.U, v: d.V, t: d.T}
		if !base.directed && k.u > k.v {
			k.u, k.v = k.v, k.u
		}
		final[k] = finalOp{del: d.Del, w: d.W}
	}

	// Bucket surviving ops per label. The node universe grows only from
	// surviving insertions: a removal of an arc base never held cannot
	// invent a node, because it would never reach a Builder either.
	newN := n0
	perLabel := make(map[int64][]stampOp)
	for k, op := range final {
		if !op.del {
			if int(k.u) >= newN {
				newN = int(k.u) + 1
			}
			if int(k.v) >= newN {
				newN = int(k.v) + 1
			}
		}
		perLabel[k.t] = append(perLabel[k.t], stampOp{u: k.u, v: k.v, w: op.w, del: op.del})
	}

	// Rebuild the touched stamps — each one independently, so the
	// merge-copies fan out across cores when the delta spans several
	// stamps — and assemble brand-new ones.
	type labelWork struct {
		label int64
		si    int // base stamp index, or -1 for a new label
		ops   []stampOp
		ps    patchedStamp
		ok    bool // new-label work: at least one insertion survived
	}
	work := make([]labelWork, 0, len(perLabel))
	for label, ops := range perLabel {
		work = append(work, labelWork{label: label, si: base.StampOf(label), ops: ops})
	}
	runTasks(runtime.GOMAXPROCS(0), len(work), func(i int) {
		if work[i].si >= 0 {
			work[i].ps = patchStamp(base, work[i].si, work[i].ops, newN)
		} else {
			work[i].ps, work[i].ok = newStamp(base, work[i].ops, newN)
		}
	})
	patched := make(map[int]patchedStamp, len(work))
	inserted := make(map[int64]patchedStamp)
	changedAny := false
	for i := range work {
		w := &work[i]
		if w.si >= 0 {
			patched[w.si] = w.ps
			changedAny = changedAny || w.ps.changed
		} else if w.ok {
			inserted[w.label] = w.ps
			changedAny = true
		}
	}
	if !changedAny {
		// Every op was a no-op (re-adds of present arcs, removals of
		// absent ones): the delta cannot be told apart from an empty
		// one, so share everything — including the cached CSR view.
		return base
	}

	// New stamp axis: base stamps survive unless their patched edge set
	// emptied; new labels splice in label order. oldToNew records where
	// each base stamp landed (-1: dropped).
	newLabels := make([]int64, 0, len(inserted))
	for l := range inserted {
		newLabels = append(newLabels, l)
	}
	sort.Slice(newLabels, func(i, j int) bool { return newLabels[i] < newLabels[j] })
	type axisEntry struct {
		label   int64
		snap    snapshot
		shared  bool // snapshot shared with base
		touched []int32
	}
	axis := make([]axisEntry, 0, len(base.snaps)+len(newLabels))
	oldToNew := make([]int32, len(base.snaps))
	li := 0
	for si := range base.snaps {
		label := base.times[si]
		for li < len(newLabels) && newLabels[li] < label {
			ps := inserted[newLabels[li]]
			axis = append(axis, axisEntry{label: newLabels[li], snap: ps.snap, touched: ps.touched})
			li++
		}
		if ps, ok := patched[si]; ok && ps.changed {
			if ps.snap.edges == 0 {
				oldToNew[si] = -1 // the delta emptied this stamp: it vanishes, like a Builder never seeing its label
				continue
			}
			oldToNew[si] = int32(len(axis))
			axis = append(axis, axisEntry{label: label, snap: ps.snap, touched: ps.touched})
			continue
		}
		oldToNew[si] = int32(len(axis))
		axis = append(axis, axisEntry{label: label, snap: base.snaps[si], shared: true})
	}
	for ; li < len(newLabels); li++ {
		ps := inserted[newLabels[li]]
		axis = append(axis, axisEntry{label: newLabels[li], snap: ps.snap, touched: ps.touched})
	}
	// Did any surviving base stamp change index? Appends at the end of
	// the time axis (the live append-mostly case) do not shift anything,
	// so shared active-stamp rows stay valid as-is.
	axisShifted := false
	for si := range oldToNew {
		if oldToNew[si] != int32(si) {
			axisShifted = true
			break
		}
	}

	g := &IntEvolvingGraph{
		directed: base.directed,
		weighted: base.weighted,
		numNodes: newN,
		snaps:    make([]snapshot, len(axis)),
	}
	if !axisShifted && len(newLabels) == 0 {
		g.times = base.times // axis unchanged: share the label slice
	} else {
		g.times = make([]int64, len(axis))
		for i, e := range axis {
			g.times[i] = e.label
		}
	}
	grown := newN > n0
	for i, e := range axis {
		if e.shared && grown {
			// A shared snapshot's pointer rows and active set are sized
			// for the old universe; regrow them (the adjacency and
			// weight slices — the bulk — stay shared). A snapshot kept
			// across an earlier universe shrink can already be wider
			// than base.numNodes — its tail rows are empty, so it only
			// grows when the new universe passes its real capacity.
			if prevN := e.snap.active.Len(); prevN < newN {
				e.snap.outPtr = extendPtr(e.snap.outPtr, prevN, newN)
				e.snap.inPtr = extendPtr(e.snap.inPtr, prevN, newN)
				e.snap.active = e.snap.active.CloneGrow(newN)
			}
		}
		g.snaps[i] = e.snap
	}

	// Active-stamp rows. Nodes whose activity possibly changed (arc
	// endpoints of structural changes) are rebuilt by scanning the new
	// stamps; everyone else shares base's row — remapped through
	// oldToNew only when the axis shifted.
	affected := make(map[int32]struct{})
	for _, e := range axis {
		for _, v := range e.touched {
			affected[v] = struct{}{}
		}
	}
	g.activeAt = make([][]int32, newN)
	for v := 0; v < n0; v++ {
		if _, ok := affected[int32(v)]; ok {
			continue
		}
		row := base.activeAt[v]
		if !axisShifted || len(row) == 0 {
			g.activeAt[v] = row
			continue
		}
		nr := make([]int32, 0, len(row))
		for _, s := range row {
			if ns := oldToNew[s]; ns >= 0 {
				nr = append(nr, ns)
			}
		}
		g.activeAt[v] = nr
	}
	for v := range affected {
		var nr []int32
		for t := range g.snaps {
			if g.snaps[t].active.Get(int(v)) {
				nr = append(nr, int32(t))
			}
		}
		g.activeAt[v] = nr
	}
	for _, row := range g.activeAt {
		g.numActive += len(row)
	}

	// The universe shrinks when the top of the id space lost its last
	// edge — a Builder replay would compute the smaller max node id.
	// (Activity ⇔ having an edge somewhere, since self-loops are
	// dropped at build time.)
	shrunk := newN
	for shrunk > 0 && len(g.activeAt[shrunk-1]) == 0 {
		shrunk--
	}
	if shrunk < newN {
		g.numNodes = shrunk
		g.activeAt = g.activeAt[:shrunk]
	}
	return g
}

// patchedStamp is one stamp's rebuild result: the new snapshot plus the
// nodes whose activity there may have changed. changed == false means
// every op was a no-op and base's snapshot should be shared untouched.
type patchedStamp struct {
	snap    snapshot
	touched []int32
	changed bool
}

// patchStamp merge-copies one existing stamp's snapshot under a set of
// canonical arc ops. Cost is O(n + m_s + d log m) for a stamp with m_s
// arcs and d ops — a memcopy with per-touched-node merges, never a
// hash-map rebuild.
func patchStamp(base *IntEvolvingGraph, si int, ops []stampOp, newN int) patchedStamp {
	s := &base.snaps[si]
	n0 := base.numNodes
	// Resolve each op against base's rows: re-adding a present arc
	// (weight kept) and removing an absent one change nothing and drop
	// out here.
	type dirChange struct {
		src, dst int32
		w        float64
		add      bool
	}
	var changes []dirChange
	edges := s.edges
	for _, op := range ops {
		present := int(op.u) < n0 && int(op.v) < n0 && hasArc(s, op.u, op.v)
		switch {
		case op.del && present:
			edges--
			changes = append(changes, dirChange{src: op.u, dst: op.v})
			if !base.directed {
				changes = append(changes, dirChange{src: op.v, dst: op.u})
			}
		case !op.del && !present:
			edges++
			changes = append(changes, dirChange{src: op.u, dst: op.v, w: op.w, add: true})
			if !base.directed {
				changes = append(changes, dirChange{src: op.v, dst: op.u, w: op.w, add: true})
			}
		}
	}
	if len(changes) == 0 {
		return patchedStamp{}
	}

	outEd := make(map[int32]*rowEdit)
	inEd := make(map[int32]*rowEdit)
	edit := func(m map[int32]*rowEdit, v int32) *rowEdit {
		e := m[v]
		if e == nil {
			e = &rowEdit{}
			m[v] = e
		}
		return e
	}
	touchedSet := make(map[int32]struct{})
	for _, ch := range changes {
		touchedSet[ch.src] = struct{}{}
		touchedSet[ch.dst] = struct{}{}
		if ch.add {
			edit(outEd, ch.src).adds = append(edit(outEd, ch.src).adds, nbrW{ch.dst, ch.w})
			edit(inEd, ch.dst).adds = append(edit(inEd, ch.dst).adds, nbrW{ch.src, ch.w})
		} else {
			edit(outEd, ch.src).dels = append(edit(outEd, ch.src).dels, ch.dst)
			edit(inEd, ch.dst).dels = append(edit(inEd, ch.dst).dels, ch.src)
		}
	}
	touched := make([]int32, 0, len(touchedSet))
	for v := range touchedSet {
		touched = append(touched, v)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })

	ns := snapshot{edges: edges}
	ns.outPtr, ns.outAdj, ns.outW = rebuildRows(s.outPtr, s.outAdj, s.outW, outEd, n0, newN, base.weighted)
	ns.inPtr, ns.inAdj, ns.inW = rebuildRows(s.inPtr, s.inAdj, s.inW, inEd, n0, newN, base.weighted)
	ns.active = cloneActive(s.active, newN)
	for _, v := range touched {
		if ns.outPtr[v+1] > ns.outPtr[v] || ns.inPtr[v+1] > ns.inPtr[v] {
			ns.active.Set(int(v))
		} else {
			ns.active.Clear(int(v))
		}
	}
	return patchedStamp{snap: ns, touched: touched, changed: true}
}

// newStamp builds the snapshot of a label base does not carry. Only
// surviving insertions matter: removals at an unknown label cannot hit
// anything, and a label left with no edges materialises no stamp (the
// Builder rule). The ops are already canonical and unique per arc, and
// the nodes they touch are exactly the new stamp's active nodes.
func newStamp(base *IntEvolvingGraph, ops []stampOp, newN int) (patchedStamp, bool) {
	edges := make([]rawEdge, 0, len(ops))
	for _, op := range ops {
		if !op.del {
			edges = append(edges, rawEdge{u: op.u, v: op.v, w: op.w})
		}
	}
	if len(edges) == 0 {
		return patchedStamp{}, false
	}
	snap := newStampBuilder(newN, base.directed, base.weighted).build(edges)
	touched := make([]int32, 0, snap.active.Count())
	for v := snap.active.NextSet(0); v >= 0; v = snap.active.NextSet(v + 1) {
		touched = append(touched, int32(v))
	}
	return patchedStamp{snap: snap, touched: touched, changed: true}, true
}

// nbrW is one adjacency insertion: a neighbour and its weight.
type nbrW struct {
	nbr int32
	w   float64
}

// rowEdit collects the insertions and deletions of one node's adjacency
// row at one stamp.
type rowEdit struct {
	adds []nbrW
	dels []int32
}

// rebuildRows produces the patched pointer/adjacency/weight arrays of
// one direction of one stamp: untouched node runs are bulk-copied,
// edited rows are three-way merged in sorted order. oldPtr covers n0
// nodes; the result covers newN ≥ n0 (rows beyond n0 start empty).
func rebuildRows(oldPtr, oldAdj []int32, oldW []float64, edits map[int32]*rowEdit, n0, newN int, weighted bool) (ptr, adj []int32, ws []float64) {
	touched := make([]int32, 0, len(edits))
	for v := range edits {
		touched = append(touched, v)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })

	// Pointer rows: untouched runs keep their old degrees, offsets
	// shifted by the arcs inserted/deleted so far — a tight add loop,
	// no per-node edit lookups.
	ptr = make([]int32, newN+1)
	oldTotal := oldPtr[n0]
	shift := int32(0)
	shiftCopy := func(lo, hi int) {
		mid := hi
		if mid > n0 {
			mid = n0
		}
		for i := lo; i < mid; i++ {
			ptr[i+1] = oldPtr[i+1] + shift
		}
		if lo < n0 {
			lo = n0
		}
		for i := lo; i < hi; i++ {
			ptr[i+1] = oldTotal + shift // rows beyond the old universe are empty
		}
	}
	prevPtr := 0
	for _, v := range touched {
		shiftCopy(prevPtr, int(v))
		e := edits[v]
		deg := int32(0)
		if int(v) < n0 {
			deg = oldPtr[v+1] - oldPtr[v]
		}
		d := int32(len(e.adds) - len(e.dels))
		ptr[v+1] = ptr[v] + deg + d
		shift += d
		prevPtr = int(v) + 1
	}
	shiftCopy(prevPtr, newN)

	adj = make([]int32, ptr[newN])
	if weighted {
		ws = make([]float64, ptr[newN])
	}
	prev := 0
	bulk := func(lo, hi int) { // copy the untouched rows [lo, hi)
		if hi > n0 {
			hi = n0
		}
		if lo >= hi {
			return
		}
		copy(adj[ptr[lo]:], oldAdj[oldPtr[lo]:oldPtr[hi]])
		if weighted {
			copy(ws[ptr[lo]:], oldW[oldPtr[lo]:oldPtr[hi]])
		}
	}
	for _, v := range touched {
		bulk(prev, int(v))
		e := edits[v]
		sort.Slice(e.adds, func(i, j int) bool { return e.adds[i].nbr < e.adds[j].nbr })
		sort.Slice(e.dels, func(i, j int) bool { return e.dels[i] < e.dels[j] })
		var src []int32
		var srcW []float64
		if int(v) < n0 {
			src = oldAdj[oldPtr[v]:oldPtr[v+1]]
			if oldW != nil {
				srcW = oldW[oldPtr[v]:oldPtr[v+1]]
			}
		}
		mergeRow(adj[ptr[v]:ptr[v+1]], wslice(ws, ptr, v), src, srcW, e.adds, e.dels)
		prev = int(v) + 1
	}
	bulk(prev, n0)
	return ptr, adj, ws
}

// wslice returns the weight sub-row of node v, or nil for unweighted
// graphs.
func wslice(ws []float64, ptr []int32, v int32) []float64 {
	if ws == nil {
		return nil
	}
	return ws[ptr[v]:ptr[v+1]]
}

// mergeRow writes src minus dels plus adds into dst in sorted order.
// adds and dels are sorted, disjoint from each other (one final op per
// arc), adds are absent from src and dels present — patchStamp resolved
// that. dstW is nil for unweighted rows.
func mergeRow(dst []int32, dstW []float64, src []int32, srcW []float64, adds []nbrW, dels []int32) {
	di, ai, xi := 0, 0, 0
	for si, nb := range src {
		for ai < len(adds) && adds[ai].nbr < nb {
			dst[di] = adds[ai].nbr
			if dstW != nil {
				dstW[di] = adds[ai].w
			}
			di++
			ai++
		}
		if xi < len(dels) && dels[xi] == nb {
			xi++
			continue
		}
		dst[di] = nb
		if dstW != nil {
			dstW[di] = srcW[si]
		}
		di++
	}
	for ; ai < len(adds); ai++ {
		dst[di] = adds[ai].nbr
		if dstW != nil {
			dstW[di] = adds[ai].w
		}
		di++
	}
}

// cloneActive copies an active set to exactly n bits. The source may be
// wider than n when the snapshot survived an earlier universe shrink —
// every bit past n is guaranteed clear then (those nodes hold no arcs
// anywhere), so the narrower copy loses nothing and restores the
// invariant that a rebuilt snapshot's rows and active set agree on
// capacity.
func cloneActive(b *ds.BitSet, n int) *ds.BitSet {
	if n >= b.Len() {
		return b.CloneGrow(n)
	}
	c := ds.NewBitSet(n)
	for i := b.NextSet(0); i >= 0 && i < n; i = b.NextSet(i + 1) {
		c.Set(i)
	}
	return c
}

// hasArc reports whether u's out-row of s contains v (rows are sorted).
func hasArc(s *snapshot, u, v int32) bool {
	adj := s.outAdj[s.outPtr[u]:s.outPtr[u+1]]
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// extendPtr grows a prefix-sum pointer array from n0+1 to newN+1
// entries; the new rows are empty (all offsets equal the old total).
func extendPtr(ptr []int32, n0, newN int) []int32 {
	np := make([]int32, newN+1)
	copy(np, ptr[:n0+1])
	last := ptr[n0]
	for i := n0 + 1; i <= newN; i++ {
		np[i] = last
	}
	return np
}
