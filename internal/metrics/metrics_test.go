package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/egraph"
	"repro/internal/gen"
)

func tn(v, s int32) egraph.TemporalNode { return egraph.TemporalNode{Node: v, Stamp: s} }

// The three distance notions disagree on the Fig. 1 graph for the pair
// (1,t1) → node 3:
//
//   - paper distance (edges, causal counted): 3
//   - dynamic-walk distance (causal free): 1
//   - Tang temporal distance (stamps, inclusive): 2  (start at t1, reach 3 at t2)
func TestThreeDistanceNotionsDisagree(t *testing.T) {
	g := egraph.Figure1Graph()
	paper, err := PaperDistance(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if paper != 3 {
		t.Fatalf("paper distance = %d, want 3", paper)
	}
	dw, err := DynamicWalkDistance(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if dw != 1 {
		t.Fatalf("dynamic-walk distance = %d, want 1", dw)
	}
	tang := TangTemporalDistance(g, tn(0, 0), 2)
	if tang != 2 {
		t.Fatalf("Tang temporal distance = %d, want 2", tang)
	}
	if paper == dw || paper == tang {
		t.Fatal("distance notions should disagree on this instance")
	}
}

func TestTangDistanceBasics(t *testing.T) {
	g := egraph.Figure1Graph()
	// Self: inclusive convention counts the starting stamp.
	if d := TangTemporalDistance(g, tn(0, 0), 0); d != 1 {
		t.Fatalf("self distance = %d, want 1", d)
	}
	// One hop within the first stamp: still 1 stamp used.
	if d := TangTemporalDistance(g, tn(0, 0), 1); d != 1 {
		t.Fatalf("same-stamp hop = %d, want 1", d)
	}
	// Unreachable: nothing reaches node 1 from (3,·) forward.
	if d := TangTemporalDistance(g, tn(2, 1), 0); d != Unreachable {
		t.Fatalf("unreachable = %d, want -1", d)
	}
	// Out-of-range inputs.
	if d := TangTemporalDistance(g, tn(9, 0), 0); d != Unreachable {
		t.Fatalf("bad node = %d, want -1", d)
	}
}

// Tang's model allows only one hop per stamp: a two-hop chain within a
// single stamp needs two stamps' worth of edges, or is unreachable if the
// edge never reappears.
func TestTangOneHopPerStamp(t *testing.T) {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1) // same stamp
	g := b.Build()
	if d := TangTemporalDistance(g, tn(0, 0), 2); d != Unreachable {
		t.Fatalf("two hops in one stamp = %d, want unreachable", d)
	}
	// With the second edge also present at stamp 2, the journey takes 2.
	b2 := egraph.NewBuilder(true)
	b2.AddEdge(0, 1, 1)
	b2.AddEdge(1, 2, 1)
	b2.AddEdge(1, 2, 2)
	g2 := b2.Build()
	if d := TangTemporalDistance(g2, tn(0, 0), 2); d != 2 {
		t.Fatalf("two-stamp journey = %d, want 2", d)
	}
}

func TestDynamicWalkDistanceUnreachable(t *testing.T) {
	g := egraph.Figure1Graph()
	d, err := DynamicWalkDistance(g, tn(2, 2), tn(0, 0), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if d != Unreachable {
		t.Fatalf("d = %d, want unreachable", d)
	}
	if _, err := DynamicWalkDistance(g, tn(2, 0), tn(0, 0), egraph.CausalAllPairs); err == nil {
		t.Fatal("inactive source should error")
	}
}

func TestTemporalCloseness(t *testing.T) {
	g := egraph.Figure1Graph()
	c, err := TemporalClosenessOpts(g, tn(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Distances from (1,t1): 1,1,2,2,3 → Σ1/d = 1+1+0.5+0.5+1/3.
	want := 1 + 1 + 0.5 + 0.5 + 1.0/3.0
	if math.Abs(c-want) > 1e-12 {
		t.Fatalf("closeness = %g, want %g", c, want)
	}
	// A sink has closeness 0.
	c2, err := TemporalClosenessOpts(g, tn(2, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 0 {
		t.Fatalf("sink closeness = %g, want 0", c2)
	}
	if _, err := TemporalClosenessOpts(g, tn(2, 0), Options{}); err == nil {
		t.Fatal("inactive root should error")
	}
}

func TestGlobalEfficiencyFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	st := GlobalEfficiencyOpts(g, Options{Mode: egraph.CausalAllPairs})
	// Reachable ordered pairs among the 6 active temporal nodes:
	// from (1,t1): 5; (2,t1): 2 ((2,t3),(3,t3)); (1,t2): 2; (3,t2): 1;
	// (2,t3): 1; (3,t3): 0  => 11 of 30.
	if st.ReachableFraction != 11.0/30.0 {
		t.Fatalf("ReachableFraction = %g, want %g", st.ReachableFraction, 11.0/30.0)
	}
	if st.Diameter != 3 {
		t.Fatalf("Diameter = %d, want 3", st.Diameter)
	}
	if st.Efficiency <= 0 || st.Efficiency >= 1 {
		t.Fatalf("Efficiency = %g out of range", st.Efficiency)
	}
	if st.MeanDistance <= 1 || st.MeanDistance >= 3 {
		t.Fatalf("MeanDistance = %g implausible", st.MeanDistance)
	}
}

func TestGlobalEfficiencyTrivial(t *testing.T) {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	st := GlobalEfficiencyOpts(g, Options{Mode: egraph.CausalAllPairs})
	// Two active temporal nodes, one reachable pair of distance 1.
	if st.ReachableFraction != 0.5 || st.Efficiency != 0.5 || st.MeanDistance != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// visitOrderEfficiency sums GlobalEfficiencyOpts node by node: 1/d and d
// for every temporal node each root's BFS reaches, in Visit order.
func visitOrderEfficiency(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) EfficiencyStats {
	roots := g.ActiveTemporalNodes()
	var st EfficiencyStats
	var effSum, distSum float64
	reachable := 0
	for _, root := range roots {
		res, err := core.BFS(g, root, core.Options{Mode: mode})
		if err != nil {
			panic(err)
		}
		var eff, dist float64
		res.Visit(func(_ egraph.TemporalNode, d int) bool {
			if d > 0 {
				eff += 1 / float64(d)
				dist += float64(d)
				reachable++
				st.Diameter = max(st.Diameter, d)
			}
			return true
		})
		effSum += eff
		distSum += dist
	}
	pairs := float64(len(roots) * (len(roots) - 1))
	st.Efficiency = effSum / pairs
	st.ReachableFraction = float64(reachable) / pairs
	st.MeanDistance = distSum / float64(reachable)
	return st
}

// Summing each root's efficiency per distance moves it from the
// node-by-node sum by rounding only; the other fields come from
// integer-valued sums and must not move at all.
func TestGlobalEfficiencyMatchesVisitOrder(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := gen.Random(gen.RandomConfig{Nodes: 250, Stamps: 8, Edges: 2500, Directed: true, Seed: seed})
		for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
			got, want := GlobalEfficiencyOpts(g, Options{Mode: mode}), visitOrderEfficiency(g, mode)
			drift := math.Abs(got.Efficiency-want.Efficiency) / want.Efficiency
			t.Logf("seed %d mode %v: efficiency %v, node-by-node %v, relative drift %.1e", seed, mode, got.Efficiency, want.Efficiency, drift)
			if drift > 1e-12 {
				t.Errorf("seed %d mode %v: efficiency drifts %.1e relative, want ≤ 1e-12", seed, mode, drift)
			}
			got.Efficiency = want.Efficiency
			if got != want {
				t.Errorf("seed %d mode %v: stats %+v, node-by-node %+v", seed, mode, got, want)
			}
		}
	}
}

// Differential engine equivalence: the CSR-backed closeness and
// efficiency sweeps must return float-bit-identical results to the
// adjacency-map oracle (closeness sums identical dist arrays in the same
// order, efficiency sums identical level sizes the same way), across
// causal modes, worker counts and generator workloads.
func assertEnginesAgree(t *testing.T, g *egraph.IntEvolvingGraph, label string) {
	t.Helper()
	for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
		csr := Options{Mode: mode, Workers: 3}
		oracle := Options{Mode: mode, UseAdjacencyMaps: true, Workers: 1}
		want := GlobalEfficiencyOpts(g, oracle)
		for _, workers := range []int{1, 3} {
			if got := GlobalEfficiencyOpts(g, Options{Mode: mode, Workers: workers}); got != want {
				t.Fatalf("%s mode %v workers %d: GlobalEfficiency diverges:\ncsr  %+v\nmaps %+v", label, mode, workers, got, want)
			}
		}
		for i, root := range g.ActiveTemporalNodes() {
			if i%3 != 0 {
				continue // sample roots to keep the sweep cheap
			}
			got, err1 := TemporalClosenessOpts(g, root, csr)
			want, err2 := TemporalClosenessOpts(g, root, oracle)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s mode %v: closeness errors: %v / %v", label, mode, err1, err2)
			}
			if got != want {
				t.Fatalf("%s mode %v root %v: closeness diverges: csr %v, maps %v",
					label, mode, root, got, want)
			}
		}
	}
}

func TestEngineEquivalenceRandom(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		b := egraph.NewBuilder(directed)
		n := 2 + rng.Intn(8)
		stamps := 1 + rng.Intn(4)
		for e := 0; e < rng.Intn(3*n); e++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(stamps)))
		}
		b.AddEdge(0, 1, 1)
		assertEnginesAgree(t, b.Build(), "random")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineEquivalenceGeneratorWorkloads(t *testing.T) {
	cfg := gen.DefaultCitationConfig()
	cfg.Authors = 50
	cfg.Stamps = 6
	cite, _ := gen.Citation(cfg)
	assertEnginesAgree(t, cite, "citation")
	assertEnginesAgree(t, gen.GNP(30, 4, 0.05, true, 5), "gnp")
}
