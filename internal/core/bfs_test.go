package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
)

func tn(v, s int32) egraph.TemporalNode { return egraph.TemporalNode{Node: v, Stamp: s} }

// randomGraph mirrors egraph's property-test generator.
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

// timeReverse returns g with time running backwards and every edge
// reversed (Sec. V's t → −t): stamp i of the result is stamp n−1−i of g
// with u→v turned into v→u.
func timeReverse(g *egraph.IntEvolvingGraph) *egraph.IntEvolvingGraph {
	b := egraph.NewBuilder(g.Directed())
	for t, label := range g.TimeLabels() {
		g.VisitEdges(int32(t), func(u, v int32, _ float64) bool {
			b.AddEdge(v, u, -label)
			return true
		})
	}
	return b.Build()
}

// Forward neighbours of the Fig. 1 graph exactly as stated in Sec. II-A:
// "the forward neighbors of (1,t1) are (2,t1) and (1,t2) and the only
// forward neighbor of (2,t1) is (2,t3)".
func TestForwardNeighborsFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	got := ForwardNeighbors(g, tn(0, 0), egraph.CausalAllPairs)
	want := map[egraph.TemporalNode]bool{tn(1, 0): true, tn(0, 1): true}
	if len(got) != len(want) {
		t.Fatalf("ForwardNeighbors((1,t1)) = %v", got)
	}
	for _, nb := range got {
		if !want[nb] {
			t.Fatalf("unexpected neighbour %v", nb)
		}
	}
	got = ForwardNeighbors(g, tn(1, 0), egraph.CausalAllPairs)
	if len(got) != 1 || got[0] != tn(1, 2) {
		t.Fatalf("ForwardNeighbors((2,t1)) = %v, want [(2,t3)]", got)
	}
}

// 2-forward neighbours of (1,t1) per Sec. II-A: (2,t1), (1,t2), (2,t2)…
// — the paper lists (2,t2) but (2,t2) is inactive; the reachable set at
// distance ≤ 2 is {(2,t1), (1,t2), (3,t2), (2,t3)}. We test distances.
func TestFigure1Distances(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := BFS(g, tn(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantDist := map[egraph.TemporalNode]int{
		tn(0, 0): 0,
		tn(1, 0): 1, tn(0, 1): 1,
		tn(2, 1): 2, tn(1, 2): 2,
		tn(2, 2): 3,
	}
	for node, want := range wantDist {
		if got := res.Dist(node); got != want {
			t.Errorf("dist(%v) = %d, want %d", node, got, want)
		}
	}
	if res.NumReached() != 6 {
		t.Fatalf("NumReached = %d, want 6", res.NumReached())
	}
	if res.MaxDist() != 3 {
		t.Fatalf("MaxDist = %d, want 3", res.MaxDist())
	}
	ls := res.LevelSizes()
	want := []int{1, 2, 2, 1}
	for i := range want {
		if ls[i] != want[i] {
			t.Fatalf("LevelSizes = %v, want %v", ls, want)
		}
	}
}

// Visit's documented contract: reached nodes in ascending temporal-node
// id order (stamp-major, node-ascending) with their distances, stopping
// as soon as fn returns false.
func TestVisitOrderAndEarlyStop(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := BFS(g, tn(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []egraph.TemporalNode{tn(0, 0), tn(1, 0), tn(0, 1), tn(2, 1), tn(1, 2), tn(2, 2)}
	wantDist := []int{0, 1, 1, 2, 2, 3}
	var got []egraph.TemporalNode
	res.Visit(func(n egraph.TemporalNode, d int) bool {
		if i := len(got); i < len(want) && d != wantDist[i] {
			t.Fatalf("Visit gave %v at distance %d, want %d", n, d, wantDist[i])
		}
		got = append(got, n)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Visit order %v, want %v", got, want)
	}
	calls := 0
	res.Visit(func(egraph.TemporalNode, int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("Visit made %d calls after fn returned false on the 3rd", calls)
	}
}

// Fig. 3: BFS from root (1,t2) reaches (3,t2) at k=1, (3,t3) at k=2, and
// never touches stamp t1.
func TestFigure3BFSTrace(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := BFS(g, tn(0, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Dist(tn(2, 1)); d != 1 {
		t.Fatalf("dist((3,t2)) = %d, want 1", d)
	}
	if d := res.Dist(tn(2, 2)); d != 2 {
		t.Fatalf("dist((3,t3)) = %d, want 2", d)
	}
	if res.NumReached() != 3 {
		t.Fatalf("NumReached = %d, want 3", res.NumReached())
	}
	// "the time t1 does not participate in the BFS": nothing at stamp 0
	// is reached.
	res.Visit(func(n egraph.TemporalNode, _ int) bool {
		if n.Stamp == 0 {
			t.Fatalf("BFS from (1,t2) reached %v at stamp t1", n)
		}
		return true
	})
}

// Sec. II-C: "all G[t] with time stamps t < t′ for a starting node (v,t′)
// are irrelevant to the BFS traversal" — deleting earlier snapshots must
// not change the result.
func TestEarlierStampsIrrelevant(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		if g.NumStamps() < 2 {
			return true
		}
		// Pick a root active at the last stamp.
		last := int32(g.NumStamps() - 1)
		act := g.ActiveNodes(int(last))
		v := act.NextSet(0)
		if v < 0 {
			return true
		}
		root := tn(int32(v), last)
		full, err := BFS(g, root, Options{})
		if err != nil {
			return false
		}
		// Rebuild the graph keeping only the last stamp.
		b := egraph.NewBuilder(directed)
		g.VisitEdges(last, func(u, w int32, _ float64) bool {
			b.AddEdge(u, w, g.TimeLabel(int(last)))
			return true
		})
		trimmed := b.Build()
		troot := tn(int32(v), 0)
		tres, err := BFS(trimmed, troot, Options{})
		if err != nil {
			return false
		}
		if full.NumReached() != tres.NumReached() {
			return false
		}
		ok := true
		full.Visit(func(n egraph.TemporalNode, d int) bool {
			if n.Stamp != last {
				ok = false
				return false
			}
			if tres.Dist(tn(n.Node, 0)) != d {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSInactiveRoot(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := BFS(g, tn(2, 0), Options{}); !errors.Is(err, ErrInactiveRoot) {
		t.Fatalf("err = %v, want ErrInactiveRoot", err)
	}
}

func TestBFSRootOutOfRange(t *testing.T) {
	g := egraph.Figure1Graph()
	for _, root := range []egraph.TemporalNode{tn(-1, 0), tn(5, 0), tn(0, -1), tn(0, 9)} {
		if _, err := BFS(g, root, Options{}); err == nil {
			t.Fatalf("BFS(%v) should fail", root)
		}
	}
}

// Theorem 1: the evolving-graph BFS agrees with the textbook static BFS
// on the unfolded graph G = (V, E), for random directed and undirected
// graphs, in both causal modes, from every active root.
func TestBFSMatchesUnfoldedStaticBFS(t *testing.T) {
	f := func(seed int64, directed, consecutive bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		mode := egraph.CausalAllPairs
		if consecutive {
			mode = egraph.CausalConsecutive
		}
		u := g.Unfold(mode)
		for rootID, root := range u.Order {
			res, err := BFS(g, root, Options{Mode: mode})
			if err != nil {
				return false
			}
			staticDist := u.Graph.BFS(int32(rootID))
			for id, want := range staticDist {
				if res.Dist(u.Order[id]) != int(want) {
					return false
				}
			}
			// And nothing inactive is ever reached.
			reached := 0
			res.Visit(func(n egraph.TemporalNode, _ int) bool {
				if u.IDOf(n) < 0 {
					reached = -1
					return false
				}
				reached++
				return true
			})
			if reached != res.NumReached() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Def. 6: the distance is not symmetric — exhibit a pair with
// d(a→b) finite and d(b→a) infinite.
func TestDistanceIsNotSymmetric(t *testing.T) {
	g := egraph.Figure1Graph()
	fwd, err := BFS(g, tn(0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Dist(tn(2, 2)) != 3 {
		t.Fatalf("d((1,t1)→(3,t3)) = %d, want 3", fwd.Dist(tn(2, 2)))
	}
	back, err := BFS(g, tn(2, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Reached(tn(0, 0)) {
		t.Fatal("(1,t1) should be unreachable from (3,t3)")
	}
}

func TestMaxDepth(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := BFS(g, tn(0, 0), Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumReached() != 3 { // root + 2 forward neighbours
		t.Fatalf("NumReached = %d, want 3", res.NumReached())
	}
	if res.Reached(tn(2, 2)) {
		t.Fatal("depth-1 BFS should not reach distance-3 node")
	}
}

// Backward BFS must agree with forward BFS on the time-reversed graph.
func TestBackwardBFSEqualsForwardOnReverse(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		rev := timeReverse(g)
		lastStamp := int32(g.NumStamps() - 1)
		u := g.Unfold(egraph.CausalAllPairs)
		for _, root := range u.Order {
			back, err := BFS(g, root, Options{Direction: Backward})
			if err != nil {
				return false
			}
			// The same temporal node in the reversed graph.
			rroot := tn(root.Node, lastStamp-root.Stamp)
			fwd, err := BFS(rev, rroot, Options{})
			if err != nil {
				return false
			}
			if back.NumReached() != fwd.NumReached() {
				return false
			}
			ok := true
			back.Visit(func(n egraph.TemporalNode, d int) bool {
				if fwd.Dist(tn(n.Node, lastStamp-n.Stamp)) != d {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := MultiSourceBFS(g, []egraph.TemporalNode{tn(0, 1), tn(1, 2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist(tn(0, 1)) != 0 || res.Dist(tn(1, 2)) != 0 {
		t.Fatal("roots should have distance 0")
	}
	if res.Dist(tn(2, 2)) != 1 {
		t.Fatalf("dist((3,t3)) = %d, want 1 (nearest root)", res.Dist(tn(2, 2)))
	}
}

func TestMultiSourceBFSDuplicateRoots(t *testing.T) {
	g := egraph.Figure1Graph()
	res, err := MultiSourceBFS(g, []egraph.TemporalNode{tn(0, 0), tn(0, 0)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LevelSizes()[0] != 1 {
		t.Fatal("duplicate roots should collapse")
	}
}

func TestMultiSourceBFSErrors(t *testing.T) {
	g := egraph.Figure1Graph()
	if _, err := MultiSourceBFS(g, nil, Options{}); err == nil {
		t.Fatal("empty root set should fail")
	}
	if _, err := MultiSourceBFS(g, []egraph.TemporalNode{tn(2, 0)}, Options{}); err == nil {
		t.Fatal("inactive root should fail")
	}
}

// Property: multi-source distance = min over single-source distances.
func TestMultiSourceIsMinOfSingle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, true)
		u := g.Unfold(egraph.CausalAllPairs)
		if len(u.Order) < 2 {
			return true
		}
		roots := []egraph.TemporalNode{u.Order[0], u.Order[len(u.Order)/2]}
		multi, err := MultiSourceBFS(g, roots, Options{})
		if err != nil {
			return false
		}
		singles := make([]*Result, len(roots))
		for i, root := range roots {
			if singles[i], err = BFS(g, root, Options{}); err != nil {
				return false
			}
		}
		for _, node := range u.Order {
			want := -1
			for _, s := range singles {
				d := s.Dist(node)
				if d >= 0 && (want < 0 || d < want) {
					want = d
				}
			}
			if multi.Dist(node) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReachable(t *testing.T) {
	g := egraph.Figure1Graph()
	ok, err := Reachable(g, tn(0, 0), tn(2, 2), egraph.CausalAllPairs)
	if err != nil || !ok {
		t.Fatalf("Reachable((1,t1)→(3,t3)) = %v, %v", ok, err)
	}
	ok, err = Reachable(g, tn(2, 2), tn(0, 0), egraph.CausalAllPairs)
	if err != nil || ok {
		t.Fatalf("Reachable((3,t3)→(1,t1)) = %v, %v; want false", ok, err)
	}
	ok, err = Reachable(g, tn(0, 0), tn(0, 0), egraph.CausalAllPairs)
	if err != nil || !ok {
		t.Fatal("node should reach itself")
	}
	if _, err = Reachable(g, tn(2, 0), tn(0, 0), egraph.CausalAllPairs); err == nil {
		t.Fatal("inactive source should fail")
	}
	ok, err = Reachable(g, tn(0, 0), tn(2, 0), egraph.CausalAllPairs)
	if err != nil || ok {
		t.Fatalf("inactive target: %v, %v; want false, nil", ok, err)
	}
}

// Reachable stops at its target's level but must answer what a full
// search reaches, for every target.
func TestReachableMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, trial%2 == 0)
		root := firstActive(g)
		for _, mode := range []egraph.CausalMode{egraph.CausalAllPairs, egraph.CausalConsecutive} {
			full, err := BFS(g, root, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, to := range g.ActiveTemporalNodes() {
				ok, err := Reachable(g, root, to, mode)
				if err != nil || ok != full.Reached(to) {
					t.Fatalf("trial %d %v %v→%v: Reachable %v, %v; BFS reached %v", trial, mode, root, to, ok, err, full.Reached(to))
				}
			}
		}
	}
}

// Causal-mode ablation: consecutive mode preserves reachability but can
// increase distances (skip edges are gone).
func TestCausalModeDistancesDiffer(t *testing.T) {
	// Node 0 active at stamps 0,1,2 (edges to 1 each stamp). All-pairs:
	// dist((0,t0)→(0,t2)) = 1; consecutive: 2.
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 1, 3)
	g := b.Build()
	all, err := BFS(g, tn(0, 0), Options{Mode: egraph.CausalAllPairs})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := BFS(g, tn(0, 0), Options{Mode: egraph.CausalConsecutive})
	if err != nil {
		t.Fatal(err)
	}
	if all.Dist(tn(0, 2)) != 1 {
		t.Fatalf("all-pairs dist = %d, want 1", all.Dist(tn(0, 2)))
	}
	if cons.Dist(tn(0, 2)) != 2 {
		t.Fatalf("consecutive dist = %d, want 2", cons.Dist(tn(0, 2)))
	}
	if all.NumReached() != cons.NumReached() {
		t.Fatal("causal mode changed reachability")
	}
}

// Property: reachability sets agree across causal modes; all-pairs
// distances never exceed consecutive distances.
func TestCausalModesSameReachability(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, directed)
		u := g.Unfold(egraph.CausalAllPairs)
		for _, root := range u.Order {
			all, err := BFS(g, root, Options{Mode: egraph.CausalAllPairs})
			if err != nil {
				return false
			}
			cons, err := BFS(g, root, Options{Mode: egraph.CausalConsecutive})
			if err != nil {
				return false
			}
			if all.NumReached() != cons.NumReached() {
				return false
			}
			ok := true
			cons.Visit(func(n egraph.TemporalNode, d int) bool {
				ad := all.Dist(n)
				if ad < 0 || ad > d {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIntroGameReachability(t *testing.T) {
	// "1 talks to 2 first, and 2 in turn talks to 3. Then 3 can collect
	// all the messages" — (1,t1) reaches player 3.
	g := egraph.IntroGameGraph(false)
	ok, err := Reachable(g, tn(0, 0), tn(2, 1), egraph.CausalAllPairs)
	if err != nil || !ok {
		t.Fatal("message a should reach player 3 in the original order")
	}
	// "if 2 talks to 3 before 1 talks to 2, then 3 can never get a."
	gs := egraph.IntroGameGraph(true)
	// Player 1 talks at the second stamp in the swapped game.
	ok, err = Reachable(gs, tn(0, 1), tn(2, 0), egraph.CausalAllPairs)
	if err != nil || ok {
		t.Fatal("message a must not reach player 3 in the swapped order")
	}
	// Exhaustive: no active (0,·) reaches any (2,·) in the swapped game.
	for _, s := range gs.ActiveStamps(0) {
		res, err := BFS(gs, tn(0, s), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, s2 := range gs.ActiveStamps(2) {
			if res.Reached(tn(2, s2)) {
				t.Fatal("swapped game leaked message a to player 3")
			}
		}
	}
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Fatal("Direction strings wrong")
	}
}
