// Command egstats profiles an evolving graph: summary statistics,
// connectivity structure, temporal diameter, and the most central
// temporal nodes — everything an analyst wants before running queries.
//
// Usage:
//
//	egstats -graph g.txt [-undirected] [-full] [-workers N]
//
// -full adds the O(|V|·|E|) analyses (diameter, closeness top-5,
// out-component profile); omit it for very large graphs.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	evolving "repro"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "graph file (required)")
		undirected = flag.Bool("undirected", false, "treat edges as undirected")
		full       = flag.Bool("full", false, "run the all-sources analyses too")
		workers    = flag.Int("workers", 0, "workers for the all-sources sweep")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		fail("open: %v", err)
	}
	g, err := evolving.ReadEdgeList(f, !*undirected)
	f.Close()
	if err != nil {
		fail("parse: %v", err)
	}

	fmt.Print(g.Stats())
	fmt.Printf("  temporal DAG:           %v\n", evolving.IsTemporalDAG(g))

	weak := evolving.WeakComponents(g, evolving.CausalAllPairs)
	largest := 0
	if len(weak) > 0 {
		largest = len(weak[0])
	}
	fmt.Printf("  weak components:        %d (largest %d temporal nodes)\n",
		len(weak), largest)
	sccs := evolving.StrongComponents(g, 2)
	fmt.Printf("  nontrivial SCCs:        %d\n", len(sccs))

	if !*full {
		return
	}
	stats := evolving.AllSourcesBFS(g, evolving.CausalAllPairs, *workers)
	diam, maxReach := 0, 0
	for _, st := range stats {
		if st.Eccentricity > diam {
			diam = st.Eccentricity
		}
		if st.Reached > maxReach {
			maxReach = st.Reached
		}
	}
	fmt.Printf("  temporal diameter:      %d\n", diam)
	fmt.Printf("  max out-component:      %d of %d temporal nodes\n",
		maxReach, g.NumActiveNodes())

	sort.Slice(stats, func(i, j int) bool { return stats[i].Closeness > stats[j].Closeness })
	fmt.Println("  top temporal closeness:")
	for i := 0; i < len(stats) && i < 5; i++ {
		st := stats[i]
		fmt.Printf("    %v  closeness %.3f  reach %d  ecc %d\n",
			st.Root, st.Closeness, st.Reached, st.Eccentricity)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "egstats: "+format+"\n", args...)
	os.Exit(1)
}
