// Command eginfluence selects maximally influential seed sets on an
// evolving graph — the scaled-up version of the paper's Sec. V citation
// mining.
//
// The graph is either loaded from an edge-list file (one "u v t" line
// per edge) or generated as a synthetic citation network. Seeds are
// chosen by CELF greedy selection (exact coverage, (1−1/e)-approximate
// joint influence).
//
// Usage:
//
//	eginfluence [-graph edges.txt] [-authors 300] [-stamps 12] [-seed 42]
//	            [-seeds 5] [-citation]
package main

import (
	"flag"
	"fmt"
	"os"

	evolving "repro"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file (default: synthetic citation network)")
		authors   = flag.Int("authors", 300, "synthetic: number of authors")
		stamps    = flag.Int("stamps", 12, "synthetic: number of years")
		seed      = flag.Int64("seed", 42, "synthetic: generator seed")
		seeds     = flag.Int("seeds", 5, "greedy seed-set size")
		citation  = flag.Bool("citation", true, "treat edges as citations (influence flows against edges)")
	)
	flag.Parse()

	var g *evolving.Graph
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fail("open: %v", err)
		}
		g, err = evolving.ReadEdgeList(f, true)
		f.Close()
		if err != nil {
			fail("parse: %v", err)
		}
	} else {
		cfg := evolving.DefaultCitationConfig()
		cfg.Authors = *authors
		cfg.Stamps = *stamps
		cfg.Seed = *seed
		g, _ = evolving.SyntheticCitation(cfg)
		fmt.Printf("# synthetic citation network: authors=%d stamps=%d seed=%d\n",
			*authors, *stamps, *seed)
	}
	fmt.Printf("# %d nodes, %d stamps, %d static edges\n",
		g.NumNodes(), g.NumStamps(), g.StaticEdgeCount())

	fmt.Printf("\n== greedy seed selection (CELF, k=%d) ==\n", *seeds)
	opts := evolving.InfluenceOptions{ReverseEdges: *citation}
	selected, err := evolving.GreedyInfluence(g, *seeds, opts)
	if err != nil {
		fail("greedy: %v", err)
	}
	if len(selected) == 0 {
		fmt.Println("no influential seeds (graph has no active nodes)")
		return
	}
	for i, s := range selected {
		fmt.Printf("%3d. node %5d  marginal +%-6d cumulative %d/%d\n",
			i+1, s.Node, s.Gain, s.Covered, g.NumNodes())
	}
	frac := float64(selected[len(selected)-1].Covered) / float64(g.NumNodes())
	fmt.Printf("joint coverage: %.1f%% of all nodes\n", 100*frac)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "eginfluence: "+format+"\n", args...)
	os.Exit(1)
}
