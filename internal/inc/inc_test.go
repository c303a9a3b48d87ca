package inc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/components"
	"repro/internal/egraph"
	"repro/internal/rank"
)

// katzTol is the equivalence bound of the oracle harness: incremental
// and full-recompute scores must agree to 1e-12 (relative for scores
// above 1 — every active slot's score is ≥ 1, so this is never looser
// than 1e-12 absolute on meaningful entries).
func katzTol(a, b float64) float64 {
	return 1e-12 * math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// CheckEpoch asserts the maintained results of one epoch equivalent to
// the verbatim full recomputations, in both causal modes.
func CheckEpoch(t testing.TB, res *Results, g *egraph.IntEvolvingGraph) {
	t.Helper()
	for mi := 0; mi < 2; mi++ {
		mode := katzMode(mi)
		if err := res.MatchesWeak(g, WeakOracle(g, mode)); err != nil {
			t.Fatalf("weak mode %d: %v", mi, err)
		}
		want, err := rank.TemporalKatz(g, rank.KatzOptions{Alpha: res.KatzAlpha, Mode: mode, Tol: SeriesTol})
		got := res.KatzScores(mode)
		if err != nil {
			if got != nil {
				t.Fatalf("katz mode %d: oracle diverged but maintainer kept scores", mi)
			}
			continue
		}
		if got == nil {
			t.Fatalf("katz mode %d: maintained scores missing (oracle converged)", mi)
		}
		if len(got) != len(want) {
			t.Fatalf("katz mode %d: dim %d, oracle %d", mi, len(got), len(want))
		}
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > katzTol(got[i], want[i]) {
				t.Fatalf("katz mode %d id %d: maintained %.17g, oracle %.17g (diff %g)",
					mi, i, got[i], want[i], d)
			}
		}
	}
}

// MatchesWeak checks a maintained partition against the oracle's
// component list: identical member sets under the canonical labelling
// (each oracle component's first member is its minimum id — members
// are stamp-major sorted), identical sizes.
func (r *Results) MatchesWeak(g *egraph.IntEvolvingGraph, oracle []components.Component) error {
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

// step patches g with delta, rolls the maintainer forward, and asserts
// epoch equivalence against the oracles.
func step(t testing.TB, m *Maintainer, g *egraph.IntEvolvingGraph, delta []egraph.ArcDelta) *egraph.IntEvolvingGraph {
	t.Helper()
	ng := egraph.Patch(g, delta)
	res := m.Apply(g, ng, delta)
	CheckEpoch(t, res, ng)
	return ng
}

type arc struct {
	u, v int32
	t    int64
}

func build(directed bool, arcs []arc) *egraph.IntEvolvingGraph {
	b := egraph.NewBuilder(directed)
	for _, a := range arcs {
		b.AddEdge(a.u, a.v, a.t)
	}
	return b.Build()
}

func add(u, v int32, t int64) egraph.ArcDelta {
	return egraph.ArcDelta{U: u, V: v, T: t, W: 1}
}

func del(u, v int32, t int64) egraph.ArcDelta {
	return egraph.ArcDelta{U: u, V: v, T: t, Del: true}
}

// TestScenarioDirected walks the maintainer through every structural
// regime on a hand-built directed graph: add-only epochs, deletions,
// re-adds, mixed no-ops, stamp insertion and drop, universe growth, a
// split-heavy deletion epoch, and a pure no-op epoch.
func TestScenarioDirected(t *testing.T) {
	g := build(true, []arc{
		{0, 1, 10}, {1, 2, 20}, // component A across two stamps
		{3, 4, 10}, // component B
		{5, 6, 30}, // component C
	})
	m := New(Config{})
	CheckEpoch(t, m.Prime(g), g)

	// Add-only on an unchanged axis: close a cycle in A and activate
	// node 0 at a stamp it was inactive at — Katz absorbs it through
	// the correction series.
	g = step(t, m, g, []egraph.ArcDelta{add(2, 0, 20), add(0, 5, 30)})
	if s := m.Stats(); s.KatzIncremental == 0 {
		t.Fatalf("add-only epoch not absorbed incrementally: %+v", s)
	}

	// Universe growth: new node 7 changes the axis, taking the slow
	// path, but the partition must still come out oracle-identical.
	g = step(t, m, g, []egraph.ArcDelta{add(6, 7, 30), add(0, 7, 30)})

	// Deletion: split A's cross-stamp link; B and C must carry over.
	g = step(t, m, g, []egraph.ArcDelta{del(1, 2, 20)})

	// Re-add it, mixed with no-ops: a removal of an absent arc and an
	// add that a later delete in the same delta cancels (last wins).
	g = step(t, m, g, []egraph.ArcDelta{
		add(1, 2, 20), del(3, 9, 10), add(5, 3, 10), del(5, 3, 10),
	})

	// Stamp insertion in the middle of the axis.
	g = step(t, m, g, []egraph.ArcDelta{add(3, 5, 15), add(4, 6, 15)})

	// Stamp drop: delete every arc at the new label.
	g = step(t, m, g, []egraph.ArcDelta{del(3, 5, 15), del(4, 6, 15)})

	// Deletion-heavy epoch: rip out arcs touching most of the graph,
	// splitting components apart.
	g = step(t, m, g, []egraph.ArcDelta{
		del(0, 1, 10), del(3, 4, 10), del(5, 6, 30), del(2, 0, 20),
	})

	// Pure no-op epoch: re-adding a present arc changes nothing, and
	// Patch hands back the base graph itself.
	ng := egraph.Patch(g, []egraph.ArcDelta{add(1, 2, 20)})
	if ng != g {
		t.Fatalf("no-op patch returned a new graph")
	}
	res := m.Apply(g, ng, []egraph.ArcDelta{add(1, 2, 20)})
	if !res.NoOp() || !res.PartitionUnchanged() || !res.AxisUnchanged() {
		t.Fatalf("no-op epoch misclassified: %+v", res)
	}
	CheckEpoch(t, res, ng)
}

// TestScenarioUndirected covers the canonicalised-arc path.
func TestScenarioUndirected(t *testing.T) {
	g := build(false, []arc{{0, 1, 10}, {2, 3, 10}, {1, 2, 20}})
	m := New(Config{})
	CheckEpoch(t, m.Prime(g), g)
	// (3,2) must canonicalise onto the existing (2,3): a no-op add.
	g = step(t, m, g, []egraph.ArcDelta{add(3, 2, 10), add(0, 3, 20)})
	g = step(t, m, g, []egraph.ArcDelta{del(2, 3, 10)})
	g = step(t, m, g, []egraph.ArcDelta{del(1, 0, 10), add(0, 2, 10)})
	_ = g
}

// TestClassification pins the cache carry-over predicates: a delta
// confined to one component leaves queries rooted in the others
// provably unaffected, while a partition-changing delta flips the
// partition flag.
func TestClassification(t *testing.T) {
	g := build(true, []arc{{0, 1, 10}, {2, 3, 10}})
	m := New(Config{})
	m.Prime(g)

	// Reverse arc inside the {2,3} component: same axis, same partition.
	delta := []egraph.ArcDelta{add(3, 2, 10)}
	ng := egraph.Patch(g, delta)
	res := m.Apply(g, ng, delta)
	CheckEpoch(t, res, ng)
	if !res.AxisUnchanged() || !res.PartitionUnchanged() {
		t.Fatalf("axis/partition misclassified: axis %v partition %v",
			res.AxisUnchanged(), res.PartitionUnchanged())
	}
	if !res.QueryUnaffected(0, 0) || !res.QueryUnaffected(1, 0) {
		t.Fatal("untouched component reported affected")
	}
	if res.QueryUnaffected(2, 0) || res.QueryUnaffected(3, 0) {
		t.Fatal("touched component reported unaffected")
	}
	// Inactive slots prove nothing.
	if res.QueryUnaffected(0, 5) || res.QueryUnaffected(9, 0) {
		t.Fatal("out-of-range query reported unaffected")
	}

	// Merge the components: partition changes, everyone is touched.
	g = ng
	delta = []egraph.ArcDelta{add(1, 2, 10)}
	ng = egraph.Patch(g, delta)
	res = m.Apply(g, ng, delta)
	CheckEpoch(t, res, ng)
	if res.PartitionUnchanged() {
		t.Fatal("merge left partition flagged unchanged")
	}
	if res.QueryUnaffected(0, 0) {
		t.Fatal("merged component reported unaffected")
	}

	// New stamp label: axis changes, nothing is provable per-node.
	g = ng
	delta = []egraph.ArcDelta{add(0, 1, 99)}
	ng = egraph.Patch(g, delta)
	res = m.Apply(g, ng, delta)
	CheckEpoch(t, res, ng)
	if res.AxisUnchanged() || res.QueryUnaffected(2, 0) {
		t.Fatal("axis change must disable carry-over")
	}
}

// TestPrimeOnForeignBase: an Apply whose base is not the maintained
// graph (state handed a different lineage) must fall back to priming.
func TestPrimeOnForeignBase(t *testing.T) {
	g1 := build(true, []arc{{0, 1, 10}})
	g2 := build(true, []arc{{0, 1, 10}, {1, 2, 20}})
	m := New(Config{})
	m.Prime(g1)
	other := build(true, []arc{{4, 5, 10}})
	res := m.Apply(other, g2, nil) // base mismatch
	CheckEpoch(t, res, g2)
}

// TestRandomEpochs drives many randomized delta sequences through the
// maintainer, asserting oracle equivalence after every epoch — the
// deterministic sibling of the fuzz harness.
func TestRandomEpochs(t *testing.T) {
	labels := []int64{10, 20, 30, 40}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			directed := seed%2 == 0
			g := build(directed, []arc{{0, 1, 10}, {2, 3, 20}})
			m := New(Config{})
			CheckEpoch(t, m.Prime(g), g)
			for epoch := 0; epoch < 30; epoch++ {
				k := 1 + rng.Intn(10)
				delta := make([]egraph.ArcDelta, 0, k)
				for i := 0; i < k; i++ {
					u := int32(rng.Intn(9))
					v := int32(rng.Intn(9))
					if u == v {
						v = (v + 1) % 9
					}
					lab := labels[rng.Intn(len(labels))]
					if rng.Intn(3) == 0 {
						delta = append(delta, del(u, v, lab))
					} else {
						delta = append(delta, add(u, v, lab))
					}
				}
				g = step(t, m, g, delta)
			}
			s := m.Stats()
			if s.Epochs != 30 {
				t.Fatalf("epochs = %d", s.Epochs)
			}
		})
	}
}
