package temporal

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/egraph"
)

func tn(v, s int32) egraph.TemporalNode { return egraph.TemporalNode{Node: v, Stamp: s} }

// randomGraph mirrors the generator used by core's property tests.
func randomGraph(rng *rand.Rand, directed bool) *egraph.IntEvolvingGraph {
	b := egraph.NewBuilder(directed)
	n := 2 + rng.Intn(8)
	stamps := 1 + rng.Intn(5)
	edges := rng.Intn(3 * n)
	for e := 0; e < edges; e++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(stamps)))
	}
	b.AddEdge(0, 1, 1)
	return b.Build()
}

func TestForemostFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	fm, err := Foremost(g, tn(0, 0), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 (paper's 1) is its own root at stamp 0; node 1 (paper's 2)
	// is reached at stamp 0 via the static edge; node 2 (paper's 3)
	// first becomes reachable at stamp 1 via (1,t1)→(1,t2)→(3,t2).
	want := []int32{0, 0, 1}
	for v, w := range want {
		if got := fm.arrival[v]; got != w {
			t.Errorf("arrival[%d] = %d, want %d", v, got, w)
		}
	}
	if lbl, ok := fm.ArrivalLabel(2); !ok || lbl != 2 {
		t.Errorf("ArrivalLabel(2) = %d,%v, want 2,true", lbl, ok)
	}
	p := fm.Path(2)
	if len(p) == 0 || p[0] != tn(0, 0) || p[len(p)-1] != tn(2, 1) {
		t.Fatalf("foremost path to 2 = %v", p)
	}
	if !p.IsValid(g, egraph.CausalAllPairs) {
		t.Fatalf("foremost path invalid: %v", p)
	}
}

func TestForemostInactiveRoot(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := Foremost(g, tn(2, 0), egraph.CausalAllPairs); !errors.Is(err, core.ErrInactiveRoot) {
		t.Fatalf("Foremost from inactive (3,t1): err = %v, want ErrInactiveRoot", err)
	}
}

func TestLatestDepartureFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	ld, err := LatestDeparture(g, tn(2, 2), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 can depart as late as t2 ((1,t2)→(3,t2)→(3,t3)); node 1
	// departs latest at t3 itself ((2,t3)→(3,t3)); node 2 at t3.
	want := []int32{1, 2, 2}
	for v, w := range want {
		if got := ld.departure[v]; got != w {
			t.Errorf("departure[%d] = %d, want %d", v, got, w)
		}
	}
}

func TestFastestFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	fast, err := Fastest(g, 0, 2, egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	// Departing at t2, (1,t2)→(3,t2) arrives within the same stamp:
	// duration 0, one hop. Departing at t1 would cost duration 1.
	if fast.Duration != 0 {
		t.Fatalf("Duration = %d, want 0", fast.Duration)
	}
	if fast.Departure != tn(0, 1) || fast.Arrival != tn(2, 1) {
		t.Fatalf("Departure/Arrival = %v/%v, want (0,t2)/(2,t2)", fast.Departure, fast.Arrival)
	}
	if fast.Hops != 1 {
		t.Fatalf("Hops = %d, want 1", fast.Hops)
	}
	if !fast.Path.IsValid(g, egraph.CausalAllPairs) {
		t.Fatalf("fastest path invalid: %v", fast.Path)
	}
}

func TestFastestUnreachable(t *testing.T) {
	g := egraph.Figure1Graph()
	// Node 2 (paper's 3) has no out-edges; node 0 is unreachable from it.
	fast, err := Fastest(g, 2, 0, egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration != -1 || fast.Path != nil {
		t.Fatalf("Fastest(2,0) = %+v, want unreachable", fast)
	}
}

func TestFastestBadArgs(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := Fastest(g, -1, 0, egraph.CausalAllPairs); err == nil {
		t.Fatal("Fastest(-1, 0) succeeded, want range error")
	}
	if _, err := Fastest(g, 0, 99, egraph.CausalAllPairs); err == nil {
		t.Fatal("Fastest(0, 99) succeeded, want range error")
	}
}

func TestCompareFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	sum, err := Compare(g, 0, 2, egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{
		Source: 0, Target: 2,
		Reachable:       true,
		ShortestHops:    2, // (1,t1)→(1,t2)→(3,t2)
		EarliestArrival: 2, // label of t2
		LatestDeparture: 2, // depart (1,t2)
		FastestDuration: 0, // same-stamp hop at t2
	}
	if sum != want {
		t.Fatalf("Compare(0,2) = %+v, want %+v", sum, want)
	}
}

func TestCompareUnreachable(t *testing.T) {
	g := egraph.Figure1Graph()
	sum, err := Compare(g, 1, 0, egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reachable {
		t.Fatalf("Compare(1,0) = %+v, want unreachable", sum)
	}
}

// Compare rejects an out-of-range node with an error, as Fastest does,
// instead of panicking.
func TestCompareOutOfRange(t *testing.T) {
	g := egraph.Figure1Graph()
	for _, c := range []struct{ src, dst int32 }{{0, 9}, {0, -1}, {9, 0}, {-1, 0}} {
		_, err := Compare(g, c.src, c.dst, egraph.CausalAllPairs)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Compare(%d, %d) error = %v, want node out of range", c.src, c.dst, err)
		}
	}
}

// Compare must agree, field by field and on every (src, dst) pair, with
// the criteria computed one at a time: the public Foremost from src's
// earliest stamp (arrival label and tree-path hops), a brute-force
// latest departure that runs one forward BFS per stamp of src, and
// Fastest.
func TestCompareMatchesCriteria(t *testing.T) {
	f := func(seed int64, directed, consecutive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		mode := egraph.CausalAllPairs
		if consecutive {
			mode = egraph.CausalConsecutive
		}
		for src := int32(0); src < int32(g.NumNodes()); src++ {
			stamps := g.ActiveStamps(src)
			for dst := int32(0); dst < int32(g.NumNodes()); dst++ {
				got, err := Compare(g, src, dst, mode)
				if len(stamps) == 0 {
					if !errors.Is(err, core.ErrInactiveRoot) {
						t.Logf("seed %d: Compare(%d, %d) on inactive src: %v", seed, src, dst, err)
						return false
					}
					continue
				}
				if err != nil {
					t.Logf("seed %d: Compare(%d, %d): %v", seed, src, dst, err)
					return false
				}
				want := Summary{Source: src, Target: dst}
				fm, err := Foremost(g, tn(src, stamps[0]), mode)
				if err != nil {
					t.Logf("foremost: %v", err)
					return false
				}
				if lbl, ok := fm.ArrivalLabel(dst); ok {
					want.Reachable = true
					want.EarliestArrival = lbl
					want.ShortestHops = fm.Path(dst).Hops()
					for _, s := range stamps {
						res, err := core.BFS(g, tn(src, s), core.Options{Mode: mode})
						if err != nil {
							t.Logf("bfs: %v", err)
							return false
						}
						for _, a := range g.ActiveStamps(dst) {
							if res.Reached(tn(dst, a)) {
								want.LatestDeparture = g.TimeLabel(int(s)) // ascending: keep the last hit
								break
							}
						}
					}
					fast, err := Fastest(g, src, dst, mode)
					if err != nil {
						t.Logf("fastest: %v", err)
						return false
					}
					want.FastestDuration = fast.Duration
				}
				if got != want {
					t.Logf("seed %d mode %v: Compare(%d, %d) = %+v, want %+v", seed, mode, src, dst, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Foremost arrival stamps must agree with an independent oracle: the
// minimum stamp over temporal nodes reached by BFS on the Theorem 1
// unfolding.
func TestForemostMatchesUnfoldingOracle(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		root := tn(0, g.ActiveStamps(0)[0])
		fm, err := Foremost(g, root, egraph.CausalAllPairs)
		if err != nil {
			t.Logf("foremost: %v", err)
			return false
		}
		u := g.Unfold(egraph.CausalAllPairs)
		dist := u.Graph.BFS(u.IDOf(root))
		oracle := make([]int32, g.NumNodes())
		for i := range oracle {
			oracle[i] = -1
		}
		for id, d := range dist {
			if d < 0 {
				continue
			}
			v := u.Order[id]
			if oracle[v.Node] < 0 || v.Stamp < oracle[v.Node] {
				oracle[v.Node] = v.Stamp
			}
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if fm.arrival[v] != oracle[v] {
				t.Logf("seed %d: node %d arrival %d, oracle %d", seed, v, fm.arrival[v], oracle[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Latest departure must agree with brute force: the max stamp s of v such
// that a forward BFS from (v, s) reaches the target.
func TestLatestDepartureMatchesBruteForce(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		// Aim at node 1's last active stamp (node 1 is always active:
		// the generator pins edge 0→1@t1).
		ts := g.ActiveStamps(1)
		target := tn(1, ts[len(ts)-1])
		ld, err := LatestDeparture(g, target, egraph.CausalAllPairs)
		if err != nil {
			t.Logf("latest departure: %v", err)
			return false
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			want := int32(-1)
			for _, s := range g.ActiveStamps(v) {
				res, err := core.BFS(g, tn(v, s), core.Options{})
				if err != nil {
					t.Logf("bfs: %v", err)
					return false
				}
				if res.Reached(target) {
					want = s // ascending: keep the last hit
				}
			}
			if ld.departure[v] != want {
				t.Logf("seed %d: node %d departure %d, brute force %d", seed, v, ld.departure[v], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Fastest must agree with brute force over all departures, where each
// departure's earliest arrival is read off a plain BFS.
func TestFastestMatchesBruteForce(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		dst := int32(1)
		fast, err := Fastest(g, 0, dst, egraph.CausalAllPairs)
		if err != nil {
			t.Logf("fastest: %v", err)
			return false
		}
		want := int64(-1)
		for _, s := range g.ActiveStamps(0) {
			res, err := core.BFS(g, tn(0, s), core.Options{})
			if err != nil {
				t.Logf("bfs: %v", err)
				return false
			}
			for _, a := range g.ActiveStamps(dst) {
				if !res.Reached(tn(dst, a)) {
					continue
				}
				d := g.TimeLabel(int(a)) - g.TimeLabel(int(s))
				if want < 0 || d < want {
					want = d
				}
				break
			}
		}
		if fast.Duration != want {
			t.Logf("seed %d: duration %d, brute force %d", seed, fast.Duration, want)
			return false
		}
		if want >= 0 {
			if !fast.Path.IsValid(g, egraph.CausalAllPairs) {
				t.Logf("seed %d: invalid path %v", seed, fast.Path)
				return false
			}
			if got := g.TimeLabel(int(fast.Arrival.Stamp)) - g.TimeLabel(int(fast.Departure.Stamp)); got != want {
				t.Logf("seed %d: endpoint duration %d ≠ %d", seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The four criteria obey the standard sandwich inequalities whenever the
// target is reachable.
func TestCriteriaInequalities(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		for dst := int32(0); dst < int32(g.NumNodes()); dst++ {
			sum, err := Compare(g, 0, dst, egraph.CausalAllPairs)
			if err != nil {
				t.Logf("compare: %v", err)
				return false
			}
			if !sum.Reachable {
				continue
			}
			depart := g.TimeLabel(int(g.ActiveStamps(0)[0]))
			if sum.EarliestArrival < depart {
				t.Logf("seed %d dst %d: arrival %d before departure %d", seed, dst, sum.EarliestArrival, depart)
				return false
			}
			if sum.FastestDuration < 0 || sum.FastestDuration > sum.EarliestArrival-depart {
				t.Logf("seed %d dst %d: fastest %d outside [0, %d]", seed, dst, sum.FastestDuration, sum.EarliestArrival-depart)
				return false
			}
			if sum.LatestDeparture < depart {
				t.Logf("seed %d dst %d: latest departure %d before earliest stamp %d", seed, dst, sum.LatestDeparture, depart)
				return false
			}
			if sum.ShortestHops < 1 && dst != 0 {
				t.Logf("seed %d dst %d: shortest hops %d", seed, dst, sum.ShortestHops)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Foremost paths must be valid temporal paths under both causal modes.
func TestForemostPathsValid(t *testing.T) {
	for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
		f := func(seed int64, directed bool) bool {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(rng, directed)
			fm, err := Foremost(g, tn(0, g.ActiveStamps(0)[0]), mode)
			if err != nil {
				t.Logf("foremost: %v", err)
				return false
			}
			for v := int32(0); v < int32(g.NumNodes()); v++ {
				p := fm.Path(v)
				if fm.arrival[v] < 0 {
					if p != nil {
						t.Logf("seed %d: path for unreachable node %d", seed, v)
						return false
					}
					continue
				}
				if !p.IsValid(g, mode) {
					t.Logf("seed %d mode %v: invalid path %v", seed, mode, p)
					return false
				}
				if last := p[len(p)-1]; last.Node != v || last.Stamp != fm.arrival[v] {
					t.Logf("seed %d: path ends at %v, want (%d,%d)", seed, last, v, fm.arrival[v])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

// collapseCausalChains must turn consecutive-mode scan routes into valid
// all-pairs paths without changing endpoints.
func TestCollapseCausalChains(t *testing.T) {
	p := core.TemporalPath{tn(0, 0), tn(0, 1), tn(0, 3), tn(1, 3)}
	got := collapseCausalChains(p)
	want := core.TemporalPath{tn(0, 0), tn(0, 3), tn(1, 3)}
	if len(got) != len(want) {
		t.Fatalf("collapsed = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("collapsed = %v, want %v", got, want)
		}
	}
	// Short paths are returned unchanged.
	short := core.TemporalPath{tn(0, 0), tn(1, 0)}
	if out := collapseCausalChains(short); len(out) != 2 {
		t.Fatalf("collapse(short) = %v", out)
	}
}

// The intro game: with the right turn order player 3 hears everything
// fast; with the swapped order message a never arrives — and the
// fastest-path machinery agrees.
func TestIntroGameSemantics(t *testing.T) {
	g := egraph.IntroGameGraph(false)
	fast, err := Fastest(g, 0, 2, egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration != 1 {
		t.Fatalf("intro game duration = %d, want 1 (depart t1, arrive t2)", fast.Duration)
	}
	swapped := egraph.IntroGameGraph(true)
	fast, err = Fastest(swapped, 0, 2, egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration != -1 {
		t.Fatalf("swapped intro game duration = %d, want unreachable", fast.Duration)
	}
}
