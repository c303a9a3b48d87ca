// Influence: who shaped a research field? Seed selection on a synthetic
// citation network (Sec. V, extended).
//
// The paper's Sec. V computes one author's influence set T(a, t) with a
// single BFS. This example scales the question up: CELF greedy picks the
// K authors whose *joint* influence covers the most of the field, which
// is a different (and for program committees, more useful) question
// than the top-K individual influencers, because influence overlaps.
// The exact spread of each single author answers the second question,
// and the two answers are compared.
package main

import (
	"fmt"
	"log"
	"sort"

	evolving "repro"
)

func main() {
	cfg := evolving.DefaultCitationConfig()
	cfg.Authors = 300
	cfg.Stamps = 10
	cfg.PubProb = 0.15 // sparse field: influence fragments into schools
	cfg.CitesPerPaper = 2
	cfg.Seed = 2016
	g, entry := evolving.SyntheticCitation(cfg)
	fmt.Printf("== Citation network: %d authors, %d stamps, %d citations ==\n\n",
		g.NumNodes(), g.NumStamps(), g.StaticEdgeCount())

	// Citation edges point i→j for "i cites j"; influence flows j→i.
	opts := evolving.InfluenceOptions{ReverseEdges: true}

	seeds, err := evolving.GreedyInfluence(g, 5, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("greedy seed set (joint influence, citation direction):")
	for i, s := range seeds {
		fmt.Printf("  %d. author %3d  marginal +%3d  cumulative %3d/%d  entered stamp %d\n",
			i+1, s.Node, s.Gain, s.Covered, g.NumNodes(), entry[s.Node])
	}
	fmt.Println()

	// Contrast with the naive top-K individual influencers: their joint
	// coverage is usually worse because their influence overlaps.
	type single struct {
		node   int32
		spread int
	}
	var singles []single
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if len(g.ActiveStamps(v)) == 0 {
			continue
		}
		sp, err := evolving.InfluenceSpread(g, []int32{v}, opts)
		if err != nil {
			log.Fatal(err)
		}
		singles = append(singles, single{v, sp})
	}
	sort.Slice(singles, func(i, j int) bool {
		if singles[i].spread != singles[j].spread {
			return singles[i].spread > singles[j].spread
		}
		return singles[i].node < singles[j].node
	})
	var topK []int32
	for i := 0; i < 5 && i < len(singles); i++ {
		topK = append(topK, singles[i].node)
	}
	topSpread, err := evolving.InfluenceSpread(g, topK, opts)
	if err != nil {
		log.Fatal(err)
	}
	greedySpread := seeds[len(seeds)-1].Covered
	fmt.Printf("joint coverage: greedy picks %d vs top-5 individuals %d "+
		"(greedy ≥ top-K because it accounts for overlap)\n", greedySpread, topSpread)
	if greedySpread < topSpread {
		log.Fatal("greedy coverage below top-K — submodularity violated?")
	}
}
