package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/egraph"
)

func TestTopologicalOrderFigure1(t *testing.T) {
	g := egraph.Figure1Graph()
	order, err := TopologicalOrder(g, egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	checkTopological(t, g, order)
}

func checkTopological(t *testing.T, g *egraph.IntEvolvingGraph, order []egraph.TemporalNode) {
	t.Helper()
	pos := make(map[egraph.TemporalNode]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	u := g.Unfold(egraph.CausalAllPairs)
	for fromID, from := range u.Order {
		for _, toID := range u.Graph.Neighbors(int32(fromID)) {
			to := u.Order[toID]
			if pos[from] >= pos[to] {
				t.Fatalf("arc %v→%v violates order", from, to)
			}
		}
	}
}

func TestTopologicalOrderCycle(t *testing.T) {
	b := egraph.NewBuilder(true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 1)
	g := b.Build()
	if _, err := TopologicalOrder(g, egraph.CausalAllPairs); err != ErrCyclic {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
	if IsTemporalDAG(g) {
		t.Fatal("cyclic graph reported as DAG")
	}
	if !IsTemporalDAG(egraph.Figure1Graph()) {
		t.Fatal("Fig. 1 graph should be a temporal DAG")
	}
}

// Property: on DAG-snapshot graphs the topological order is valid and
// covers all active temporal nodes; undirected graphs (inherently
// cyclic once an edge exists) are rejected.
func TestTopologicalOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := egraph.NewBuilder(true)
		n := 2 + rng.Intn(6)
		stamps := 1 + rng.Intn(4)
		for e := 0; e < rng.Intn(3*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			b.AddEdge(int32(u), int32(v), int64(1+rng.Intn(stamps)))
		}
		b.AddEdge(0, 1, 1)
		g := b.Build()
		order, err := TopologicalOrder(g, egraph.CausalAllPairs)
		if err != nil {
			return false
		}
		if len(order) != g.NumActiveNodes() {
			return false
		}
		pos := make(map[egraph.TemporalNode]int, len(order))
		for i, nd := range order {
			pos[nd] = i
		}
		u := g.Unfold(egraph.CausalAllPairs)
		for fromID, from := range u.Order {
			for _, toID := range u.Graph.Neighbors(int32(fromID)) {
				if pos[from] >= pos[u.Order[toID]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}

	bu := egraph.NewBuilder(false)
	bu.AddEdge(0, 1, 1)
	if _, err := TopologicalOrder(bu.Build(), egraph.CausalAllPairs); err != ErrCyclic {
		t.Fatal("undirected edge should be cyclic")
	}
}
