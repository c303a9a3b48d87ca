package egraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// foldOracle rebuilds base+delta from scratch through a Builder with
// exactly ingest.Fold's semantics (last op per arc wins, re-adds keep
// base's weight, removals of absent arcs are no-ops) — the
// differential oracle every Patch test races against.
func foldOracle(base *IntEvolvingGraph, delta []ArcDelta) *IntEvolvingGraph {
	type op struct {
		del bool
		w   float64
	}
	final := make(map[patchKey]op)
	for _, d := range delta {
		if d.U == d.V {
			continue
		}
		k := patchKey{u: d.U, v: d.V, t: d.T}
		if !base.directed && k.u > k.v {
			k.u, k.v = k.v, k.u
		}
		final[k] = op{del: d.Del, w: d.W}
	}
	var b *Builder
	if base.weighted {
		b = NewWeightedBuilder(base.directed)
	} else {
		b = NewBuilder(base.directed)
	}
	for t := 0; t < base.NumStamps(); t++ {
		label := base.TimeLabel(t)
		base.VisitEdges(int32(t), func(u, v int32, w float64) bool {
			k := patchKey{u: u, v: v, t: label} // VisitEdges reports undirected edges with u ≤ v
			if o, ok := final[k]; ok {
				if o.del {
					return true
				}
				delete(final, k) // re-added: keep base's weight
			}
			b.AddWeightedEdge(u, v, label, w)
			return true
		})
	}
	for k, o := range final {
		if !o.del {
			b.AddWeightedEdge(k.u, k.v, k.t, o.w)
		}
	}
	return b.Build()
}

// edgeRec is one (u, v, w) edge of a stamp, for stream comparison.
type edgeRec struct {
	u, v int32
	w    float64
}

func edgeStream(g *IntEvolvingGraph, t int32) []edgeRec {
	var out []edgeRec
	g.VisitEdges(t, func(u, v int32, w float64) bool {
		out = append(out, edgeRec{u, v, w})
		return true
	})
	return out
}

// requireEquivalent asserts got and want are the same evolving graph:
// identical shape, labels, per-stamp edge streams with weights, active
// structure, and a bit-identical flat CSR view.
func requireEquivalent(t *testing.T, got, want *IntEvolvingGraph) {
	t.Helper()
	if got.Directed() != want.Directed() || got.Weighted() != want.Weighted() {
		t.Fatalf("flags: got (%v,%v), want (%v,%v)", got.Directed(), got.Weighted(), want.Directed(), want.Weighted())
	}
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes: got %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if !reflect.DeepEqual(got.TimeLabels(), want.TimeLabels()) {
		t.Fatalf("TimeLabels: got %v, want %v", got.TimeLabels(), want.TimeLabels())
	}
	if got.NumActiveNodes() != want.NumActiveNodes() {
		t.Fatalf("NumActiveNodes: got %d, want %d", got.NumActiveNodes(), want.NumActiveNodes())
	}
	if got.StaticEdgeCount() != want.StaticEdgeCount() {
		t.Fatalf("StaticEdgeCount: got %d, want %d", got.StaticEdgeCount(), want.StaticEdgeCount())
	}
	for st := 0; st < want.NumStamps(); st++ {
		if got.SnapshotEdgeCount(st) != want.SnapshotEdgeCount(st) {
			t.Fatalf("stamp %d edge count: got %d, want %d", st, got.SnapshotEdgeCount(st), want.SnapshotEdgeCount(st))
		}
		if ge, we := edgeStream(got, int32(st)), edgeStream(want, int32(st)); !reflect.DeepEqual(ge, we) {
			t.Fatalf("stamp %d edges:\ngot  %v\nwant %v", st, ge, we)
		}
	}
	for v := int32(0); v < int32(want.NumNodes()); v++ {
		ga, wa := got.ActiveStamps(v), want.ActiveStamps(v)
		if len(ga) != len(wa) {
			t.Fatalf("node %d ActiveStamps: got %v, want %v", v, ga, wa)
		}
		for i := range ga {
			if ga[i] != wa[i] {
				t.Fatalf("node %d ActiveStamps: got %v, want %v", v, ga, wa)
			}
		}
	}
	// The flat views must come out byte-identical — the same assertion
	// internal/ingest's BenchmarkGateCompact makes before it times.
	gc := BuildFlatCSR(got, CSRBuildOptions{Workers: 1})
	wc := BuildFlatCSR(want, CSRBuildOptions{Workers: 1})
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("flat CSR views differ")
	}
}

// randomBase builds a reproducible base graph. Labels are spaced by 10
// so deltas can insert stamps mid-axis.
func randomBase(directed, weighted bool, nodes, stamps, edges int, seed int64) *IntEvolvingGraph {
	rng := rand.New(rand.NewSource(seed))
	var b *Builder
	if weighted {
		b = NewWeightedBuilder(directed)
	} else {
		b = NewBuilder(directed)
	}
	for i := 0; i < edges; i++ {
		u := int32(rng.Intn(nodes))
		v := int32(rng.Intn(nodes))
		if u == v {
			v = (v + 1) % int32(nodes)
		}
		b.AddWeightedEdge(u, v, int64(10*(1+rng.Intn(stamps))), 1+rng.Float64())
	}
	return b.Build()
}

// collectArcs samples existing canonical arcs for remove events.
func collectArcs(g *IntEvolvingGraph) []ArcDelta {
	var arcs []ArcDelta
	for t := 0; t < g.NumStamps(); t++ {
		label := g.TimeLabel(t)
		g.VisitEdges(int32(t), func(u, v int32, w float64) bool {
			arcs = append(arcs, ArcDelta{U: u, V: v, T: label})
			return true
		})
	}
	return arcs
}

// TestPatchEquivalenceRandom races Patch against the foldOracle
// rebuild across directed/undirected × weighted/unweighted bases under
// random deltas mixing insertions (including brand-new nodes and
// labels, mid-axis and appended), removals of existing arcs, removals
// of absent arcs, and re-adds.
func TestPatchEquivalenceRandom(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			base := randomBase(directed, weighted, 60, 5, 400, 42)
			existing := collectArcs(base)
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(1000 + seed))
				var delta []ArcDelta
				size := 1 + rng.Intn(200)
				for i := 0; i < size; i++ {
					switch rng.Intn(10) {
					case 0, 1, 2: // remove an existing arc
						a := existing[rng.Intn(len(existing))]
						a.Del = true
						delta = append(delta, a)
					case 3: // remove an absent arc (maybe unknown node)
						delta = append(delta, ArcDelta{
							U: int32(rng.Intn(80)), V: int32(60 + rng.Intn(40)),
							T: int64(10 * (1 + rng.Intn(5))), Del: true,
						})
					case 4: // re-add an existing arc (weight must survive)
						a := existing[rng.Intn(len(existing))]
						a.W = 99
						delta = append(delta, a)
					case 5: // new label — mid-axis or appended
						delta = append(delta, ArcDelta{
							U: int32(rng.Intn(60)), V: int32(rng.Intn(60)),
							T: int64(5 + 10*rng.Intn(7)), W: 1,
						})
					default: // plain add, occasionally growing the universe
						delta = append(delta, ArcDelta{
							U: int32(rng.Intn(70)), V: int32(rng.Intn(70)),
							T: int64(10 * (1 + rng.Intn(5))), W: 1 + rng.Float64(),
						})
					}
				}
				got := Patch(base, delta)
				want := foldOracle(base, delta)
				requireEquivalent(t, got, want)
			}
		}
	}
}

// TestPatchEmptyDelta asserts the no-copy contract: an empty delta
// returns base itself — pointer-identical, arc slices and all.
func TestPatchEmptyDelta(t *testing.T) {
	base := randomBase(true, false, 20, 3, 60, 7)
	if got := Patch(base, nil); got != base {
		t.Fatalf("Patch(base, nil) returned a new graph, want base itself")
	}
	if got := Patch(base, []ArcDelta{}); got != base {
		t.Fatalf("Patch(base, []) returned a new graph, want base itself")
	}
}

// TestPatchNoopDelta asserts a structurally empty delta (re-adds of
// present arcs, removals of absent ones, self-loops) also returns base
// itself: indistinguishable from an empty delta, so not even the
// top-level slices are copied.
func TestPatchNoopDelta(t *testing.T) {
	base := randomBase(true, true, 20, 3, 60, 7)
	arc := collectArcs(base)[0]
	delta := []ArcDelta{
		{U: arc.U, V: arc.V, T: arc.T, W: 123},          // re-add: keeps base's weight
		{U: 17, V: 18, T: 999, Del: true},               // unknown label
		{U: 18, V: 19, T: base.TimeLabel(0), Del: true}, // absent arc (maybe)
		{U: 5, V: 5, T: base.TimeLabel(0), W: 1},        // self-loop
	}
	// Make the "absent arc" genuinely absent.
	if base.HasEdge(18, 19, 0) {
		delta[2].U, delta[2].V = 18, 18 // degenerate to a self-loop instead
	}
	if got := Patch(base, delta); got != base {
		t.Fatalf("no-op delta returned a new graph, want base itself")
	}
}

// TestPatchSharesUntouchedStamps asserts the copy-on-write contract at
// the slice level: a delta touching only one stamp leaves every other
// stamp's arc arrays shared with base by pointer and capacity.
func TestPatchSharesUntouchedStamps(t *testing.T) {
	base := randomBase(true, true, 40, 4, 300, 9)
	label := base.TimeLabel(1)
	got := Patch(base, []ArcDelta{{U: 0, V: 39, T: label, W: 2}})
	if got == base {
		t.Fatalf("structural delta returned base itself")
	}
	for st := 0; st < base.NumStamps(); st++ {
		bs, gs := &base.snaps[st], &got.snaps[st]
		shared := len(gs.outAdj) == len(bs.outAdj) && cap(gs.outAdj) == cap(bs.outAdj) &&
			(len(bs.outAdj) == 0 || &gs.outAdj[0] == &bs.outAdj[0])
		if st == 1 {
			if shared {
				t.Fatalf("stamp %d was patched but still shares outAdj with base", st)
			}
			continue
		}
		if !shared {
			t.Fatalf("untouched stamp %d does not share outAdj with base", st)
		}
		if len(bs.outW) > 0 && &gs.outW[0] != &bs.outW[0] {
			t.Fatalf("untouched stamp %d does not share outW with base", st)
		}
	}
	// Untouched nodes share their active-stamp rows too.
	for v := int32(1); v < 39; v++ {
		br, gr := base.activeAt[v], got.activeAt[v]
		if len(br) > 0 && &gr[0] != &br[0] {
			t.Fatalf("untouched node %d does not share its activeAt row", v)
		}
	}
	requireEquivalent(t, got, foldOracle(base, []ArcDelta{{U: 0, V: 39, T: label, W: 2}}))
}

// TestPatchReAddKeepsWeight pins the weight-preserving re-add rule.
func TestPatchReAddKeepsWeight(t *testing.T) {
	b := NewWeightedBuilder(true)
	b.AddWeightedEdge(0, 1, 10, 5)
	b.AddWeightedEdge(1, 2, 10, 7)
	base := b.Build()
	got := Patch(base, []ArcDelta{
		{U: 0, V: 1, T: 10, W: 99}, // re-add: weight must stay 5
		{U: 2, V: 0, T: 10, W: 3},  // genuinely new: weight 3
	})
	ws := got.OutWeights(0, 0)
	if len(ws) != 1 || ws[0] != 5 {
		t.Fatalf("re-added arc weight = %v, want [5]", ws)
	}
	if ws := got.OutWeights(2, 0); len(ws) != 1 || ws[0] != 3 {
		t.Fatalf("new arc weight = %v, want [3]", ws)
	}
	requireEquivalent(t, got, foldOracle(base, []ArcDelta{
		{U: 0, V: 1, T: 10, W: 99}, {U: 2, V: 0, T: 10, W: 3},
	}))
}

// TestPatchNewStamp covers stamp creation at both axis positions and
// the label-with-no-surviving-adds rule.
func TestPatchNewStamp(t *testing.T) {
	base := randomBase(false, false, 30, 3, 120, 3) // labels 10, 20, 30
	cases := map[string][]ArcDelta{
		"appended": {{U: 1, V: 2, T: 40, W: 1}},
		"mid-axis": {{U: 1, V: 2, T: 15, W: 1}},
		"new label, adds all removed": {
			{U: 1, V: 2, T: 15, W: 1},
			{U: 1, V: 2, T: 15, Del: true},
		},
		"new label, removals only": {{U: 1, V: 2, T: 25, Del: true}},
	}
	for name, delta := range cases {
		got := Patch(base, delta)
		want := foldOracle(base, delta)
		if got.NumStamps() != want.NumStamps() {
			t.Fatalf("%s: NumStamps got %d, want %d", name, got.NumStamps(), want.NumStamps())
		}
		requireEquivalent(t, got, want)
	}
}

// TestPatchDropsEmptiedStamp removes every arc of one stamp: the stamp
// must vanish and later stamp indices shift, exactly as a full rebuild
// would renumber them.
func TestPatchDropsEmptiedStamp(t *testing.T) {
	base := randomBase(true, false, 25, 4, 150, 5)
	var delta []ArcDelta
	label := base.TimeLabel(1)
	base.VisitEdges(1, func(u, v int32, w float64) bool {
		delta = append(delta, ArcDelta{U: u, V: v, T: label, Del: true})
		return true
	})
	got := Patch(base, delta)
	want := foldOracle(base, delta)
	if got.NumStamps() != base.NumStamps()-1 {
		t.Fatalf("NumStamps = %d, want %d", got.NumStamps(), base.NumStamps()-1)
	}
	requireEquivalent(t, got, want)
}

// TestPatchUniverseGrowAndShrink covers node-id growth from inserted
// arcs and shrink when the top of the id space loses its last edge.
func TestPatchUniverseGrowAndShrink(t *testing.T) {
	b := NewBuilder(true)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 20)
	b.AddEdge(0, 9, 20) // node 9 is the top of the universe
	base := b.Build()
	if base.NumNodes() != 10 {
		t.Fatalf("base NumNodes = %d, want 10", base.NumNodes())
	}
	grow := []ArcDelta{{U: 3, V: 14, T: 10, W: 1}}
	got := Patch(base, grow)
	if got.NumNodes() != 15 {
		t.Fatalf("grown NumNodes = %d, want 15", got.NumNodes())
	}
	requireEquivalent(t, got, foldOracle(base, grow))

	shrink := []ArcDelta{{U: 0, V: 9, T: 20, Del: true}}
	got = Patch(base, shrink)
	if got.NumNodes() != 3 {
		t.Fatalf("shrunk NumNodes = %d, want 3", got.NumNodes())
	}
	requireEquivalent(t, got, foldOracle(base, shrink))

	// Regrow after the shrink, to a universe between the shrunk and the
	// original size: the surviving snapshots' rows are still sized for
	// the pre-shrink universe, which the next patch must tolerate (found
	// by the internal/inc fuzz harness — this used to panic).
	shrunk := got
	regrow := []ArcDelta{{U: 3, V: 6, T: 10, W: 1}}
	got = Patch(shrunk, regrow)
	if got.NumNodes() != 7 {
		t.Fatalf("regrown NumNodes = %d, want 7", got.NumNodes())
	}
	requireEquivalent(t, got, foldOracle(shrunk, regrow))
	// And past the original size, touching both a rebuilt and a shared
	// stamp.
	regrow = []ArcDelta{{U: 4, V: 12, T: 20, W: 1}, {U: 0, V: 1, T: 10, Del: true}}
	got = Patch(shrunk, regrow)
	if got.NumNodes() != 13 {
		t.Fatalf("regrown NumNodes = %d, want 13", got.NumNodes())
	}
	requireEquivalent(t, got, foldOracle(shrunk, regrow))
}

// TestPatchIsPure asserts base is untouched by a heavily overlapping
// patch: same edge streams and flat view before and after.
func TestPatchIsPure(t *testing.T) {
	base := randomBase(false, true, 30, 4, 200, 13)
	before := make([][]edgeRec, base.NumStamps())
	for st := range before {
		before[st] = edgeStream(base, int32(st))
	}
	var delta []ArcDelta
	for _, a := range collectArcs(base)[:50] {
		a.Del = true
		delta = append(delta, a)
	}
	delta = append(delta, ArcDelta{U: 50, V: 51, T: 999, W: 2})
	_ = Patch(base, delta)
	for st := range before {
		if !reflect.DeepEqual(edgeStream(base, int32(st)), before[st]) {
			t.Fatalf("Patch mutated base at stamp %d", st)
		}
	}
}

// TestPatchChained applies several deltas in sequence — the compactor's
// epoch-by-epoch shape — racing each step against the oracle.
func TestPatchChained(t *testing.T) {
	cur := randomBase(true, false, 40, 4, 250, 21)
	oracle := cur
	rng := rand.New(rand.NewSource(77))
	for epoch := 0; epoch < 6; epoch++ {
		var delta []ArcDelta
		for i := 0; i < 40; i++ {
			if rng.Intn(3) == 0 {
				arcs := collectArcs(oracle)
				if len(arcs) > 0 {
					a := arcs[rng.Intn(len(arcs))]
					a.Del = true
					delta = append(delta, a)
					continue
				}
			}
			delta = append(delta, ArcDelta{
				U: int32(rng.Intn(45)), V: int32(rng.Intn(45)),
				T: int64(10 * (1 + rng.Intn(6))), W: 1,
			})
		}
		cur = Patch(cur, delta)
		oracle = foldOracle(oracle, delta)
		requireEquivalent(t, cur, oracle)
	}
}
