package evolving_test

import (
	"fmt"
	"log"

	evolving "repro"
)

// The paper's running example (Fig. 1): build the graph, run Algorithm 1,
// read off the reached dictionary.
func Example() {
	b := evolving.NewBuilder(true)
	b.AddEdge(0, 1, 1) // the paper's 1→2 at t1
	b.AddEdge(0, 2, 2) // 1→3 at t2
	b.AddEdge(1, 2, 3) // 2→3 at t3
	g := b.Build()

	root := evolving.TemporalNode{Node: 0, Stamp: 0}
	res, err := evolving.BFS(g, root, evolving.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reached:", res.NumReached())
	fmt.Println("dist to (3,t3):", res.Dist(evolving.TemporalNode{Node: 2, Stamp: 2}))
	// Output:
	// reached: 6
	// dist to (3,t3): 3
}

// Enumerating the two temporal paths of the paper's Fig. 2.
func ExampleEnumeratePaths() {
	g := evolving.Figure1Graph()
	paths, err := evolving.EnumeratePaths(g,
		evolving.TemporalNode{Node: 0, Stamp: 0},
		evolving.TemporalNode{Node: 2, Stamp: 2},
		evolving.CausalAllPairs, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(paths), "temporal paths")
	// Output:
	// 2 temporal paths
}

// The Eq. 2 miscount: the naive adjacency-product sum reports one path
// where two exist.
func ExampleNaivePathSum() {
	g := evolving.Figure1Graph()
	s := evolving.NaivePathSum(g, 2)
	walks, _ := evolving.CountWalks(g,
		evolving.TemporalNode{Node: 0, Stamp: 0},
		evolving.TemporalNode{Node: 2, Stamp: 2},
		evolving.CausalAllPairs, 3)
	fmt.Printf("naive: %g, correct: %d\n", s.At(0, 2), walks)
	// Output:
	// naive: 1, correct: 2
}

// Algorithm 2 (algebraic BFS) agrees with Algorithm 1 (Theorem 4).
func ExampleABFS() {
	g := evolving.Figure1Graph()
	reached, err := evolving.ABFS(g,
		evolving.TemporalNode{Node: 0, Stamp: 0}, evolving.CausalAllPairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(reached[evolving.TemporalNode{Node: 2, Stamp: 2}])
	// Output:
	// 3
}
