// Scaling: a miniature of the paper's Figure 5 experiment — wall-clock
// time of Algorithm 1 against the number of static edges |Ẽ| on random
// evolving graphs with a fixed node and stamp budget, demonstrating the
// linear scaling of Theorem 2.
//
// The paper ran 10⁵ active nodes, 10 stamps and |Ẽ| up to ~5×10⁸ on a
// 1 TB machine; this example keeps the generator and algorithm identical
// but defaults to laptop-sized edge counts. The root package's
// BenchmarkFig5ScalingBFS reports the same line's coefficient as
// ns/static-edge (go test -run '^$' -bench Fig5 .).
package main

import (
	"fmt"
	"log"
	"time"

	evolving "repro"
)

func main() {
	const (
		nodes  = 20000
		stamps = 10
		seed   = 2016
	)
	edgeCounts := []int{100_000, 200_000, 400_000, 800_000}

	fmt.Printf("Figure 5 (miniature): %d nodes, %d stamps\n", nodes, stamps)
	fmt.Printf("%12s %12s %12s %14s\n", "|E~| target", "|E~| built", "BFS time", "ns per edge")

	series := evolving.RandomSeries(nodes, stamps, edgeCounts, true, seed)
	var base time.Duration
	for i, g := range series {
		root := firstActive(g)
		start := time.Now()
		res, err := evolving.BFS(g, root, evolving.Options{})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if i == 0 {
			base = elapsed
		}
		perEdge := float64(elapsed.Nanoseconds()) / float64(g.StaticEdgeCount())
		fmt.Printf("%12d %12d %12s %14.1f   (reached %d)\n",
			edgeCounts[i], g.StaticEdgeCount(), elapsed.Round(time.Microsecond), perEdge, res.NumReached())
	}
	last := series[len(series)-1]
	_ = last
	fmt.Println()
	fmt.Printf("Linear scaling check: time grew %.1fx while |E~| grew %.1fx\n",
		ratio(series, base), float64(edgeCounts[len(edgeCounts)-1])/float64(edgeCounts[0]))
	fmt.Println("(constant ns-per-edge across rows = the linear shape of the paper's Figure 5)")
}

func firstActive(g *evolving.Graph) evolving.TemporalNode {
	v := g.ActiveNodes(0).NextSet(0)
	return evolving.TemporalNode{Node: int32(v), Stamp: 0}
}

func ratio(series []*evolving.Graph, base time.Duration) float64 {
	g := series[len(series)-1]
	root := firstActive(g)
	start := time.Now()
	if _, err := evolving.BFS(g, root, evolving.Options{}); err != nil {
		log.Fatal(err)
	}
	return float64(time.Since(start)) / float64(base)
}
