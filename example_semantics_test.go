package evolving_test

import (
	"fmt"
	"log"

	evolving "repro"
)

// The four temporal-path criteria on the paper's running example:
// shortest hops, earliest arrival, latest departure, fastest duration.
func ExampleComparePathCriteria() {
	g := evolving.Figure1Graph()
	sum, err := evolving.ComparePathCriteria(g, 0, 2, evolving.CausalAllPairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reachable:", sum.Reachable)
	fmt.Println("shortest hops:", sum.ShortestHops)
	fmt.Println("earliest arrival:", sum.EarliestArrival)
	fmt.Println("latest departure:", sum.LatestDeparture)
	fmt.Println("fastest duration:", sum.FastestDuration)
	// Output:
	// reachable: true
	// shortest hops: 2
	// earliest arrival: 2
	// latest departure: 2
	// fastest duration: 0
}

// Foremost arrivals: the earliest stamp at which each node of the
// Fig. 1 graph can be reached from (1, t1).
func ExampleForemost() {
	g := evolving.Figure1Graph()
	fm, err := evolving.Foremost(g, evolving.TemporalNode{Node: 0, Stamp: 0}, evolving.CausalAllPairs)
	if err != nil {
		log.Fatal(err)
	}
	for v := int32(0); v < 3; v++ {
		if lbl, ok := fm.ArrivalLabel(v); ok {
			fmt.Printf("node %d: earliest arrival at time %d\n", v+1, lbl)
		}
	}
	// Output:
	// node 1: earliest arrival at time 1
	// node 2: earliest arrival at time 1
	// node 3: earliest arrival at time 2
}

// Changing a graph offline: fold an insertion and a deletion onto the
// Fig. 1 graph. The base is immutable, so it keeps its three edges; the
// fold returns a new graph, which searches like any other.
func ExampleFoldEvents() {
	base := evolving.Figure1Graph()
	g := evolving.FoldEvents(base, []evolving.IngestEvent{
		{Op: evolving.IngestAddArc, U: 2, V: 0, T: 4},    // 3→1 at t4
		{Op: evolving.IngestRemoveArc, U: 0, V: 1, T: 1}, // drop 1→2 at t1
	})
	fmt.Println("base edges:", base.StaticEdgeCount(), "labels:", base.TimeLabels())
	fmt.Println("folded edges:", g.StaticEdgeCount(), "labels:", g.TimeLabels())

	res, err := evolving.BFS(g, evolving.TemporalNode{Node: 0, Stamp: 0}, evolving.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reached from (1,t2):", res.NumReached())
	// Output:
	// base edges: 3 labels: [1 2 3]
	// folded edges: 3 labels: [2 3 4]
	// reached from (1,t2): 5
}

// Greedy influence maximization on the Fig. 1 graph: node 1 alone
// influences everything, so one seed suffices.
func ExampleGreedyInfluence() {
	g := evolving.Figure1Graph()
	seeds, err := evolving.GreedyInfluence(g, 3, evolving.InfluenceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range seeds {
		fmt.Printf("seed node %d: +%d nodes, %d covered\n", s.Node+1, s.Gain, s.Covered)
	}
	// Output:
	// seed node 1: +3 nodes, 3 covered
}
