// Distances: the paper's Def. 6 distance side by side with the two
// related-work notions it explicitly differentiates itself from — the
// Grindrod–Higham dynamic-walk distance (causal hops free) and the
// Tang-style temporal distance (time steps, inclusive) — evaluated on
// the paper's own Figure 1 example, where all three disagree.
package main

import (
	"fmt"
	"log"

	evolving "repro"
)

func main() {
	g := evolving.Figure1Graph()
	from := evolving.TemporalNode{Node: 0, Stamp: 0} // (1,t1)
	to := evolving.TemporalNode{Node: 2, Stamp: 2}   // (3,t3)

	fmt.Println("Figure 1 graph; query: from (1,t1) to node 3")
	fmt.Println()

	res, err := evolving.BFS(g, from, evolving.Options{TrackParents: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper distance (Def. 6, causal hops count):   %d\n", res.Dist(to))
	fmt.Printf("  witness: %v\n", evolving.TemporalPath(res.PathTo(to)))

	dw, err := evolving.DynamicWalkDistance(g, from, to, evolving.CausalAllPairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic-walk distance (waiting free):         %d\n", dw)

	tang := evolving.TangTemporalDistance(g, from, 2)
	fmt.Printf("Tang temporal distance (stamps, inclusive):   %d\n", tang)
	fmt.Println()

	// Asymmetry of the paper's distance (Def. 6 note).
	back, err := evolving.BFS(g, to, evolving.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("asymmetry: d((1,t1)->(3,t3)) = %d but d((3,t3)->(1,t1)) = %d (unreachable)\n",
		res.Dist(to), back.Dist(from))
	fmt.Println()

	// Katz centrality over the same graph.
	katz, err := evolving.TemporalKatz(g, evolving.KatzOptions{Alpha: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("temporal Katz scores by temporal node (alpha=0.5):")
	for s := 0; s < g.NumStamps(); s++ {
		for v := 0; v < g.NumNodes(); v++ {
			score := katz[s*g.NumNodes()+v]
			if score != 0 {
				fmt.Printf("  (%d,t%d): %.3f\n", v+1, s+1, score)
			}
		}
	}
}
