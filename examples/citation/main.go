// Citation: the Sec. V application — mining influence structure from a
// citation network with forward and backward evolving-graph BFS.
//
// The network is synthetic (the paper names no dataset): authors enter
// the field over time and cite earlier-publishing authors with
// preferential attachment. Edges are citer→cited per publication year.
package main

import (
	"fmt"
	"log"

	evolving "repro"
)

func main() {
	cfg := evolving.DefaultCitationConfig()
	g, _ := evolving.SyntheticCitation(cfg)
	fmt.Printf("Synthetic citation network: %d authors, %d years, %d citations\n",
		g.NumNodes(), g.NumStamps(), g.StaticEdgeCount())
	fmt.Println()

	an, err := evolving.NewCitationAnalyzer(g, evolving.CausalAllPairs)
	if err != nil {
		log.Fatal(err)
	}

	// Top authors by transitive influence T(a, t_first).
	scores, err := an.RankByInfluence(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Most influential authors (size of T(a, t_first)):")
	for rank, s := range scores {
		fmt.Printf("  %d. author %3d influences %3d authors\n", rank+1, s.Author, s.Influence)
	}
	fmt.Println()

	// Influence and influencer sets of the top author.
	star := scores[0].Author
	first := g.ActiveStamps(star)[0]
	fwd, err := an.Influence(star, first)
	if err != nil {
		log.Fatal(err)
	}
	back, err := an.Influencers(star, g.ActiveStamps(star)[len(g.ActiveStamps(star))-1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Author %d: T(a) spans %d authors over %d temporal nodes; T⁻¹(a) spans %d authors\n",
		star, fwd.NumAuthors(), len(fwd.TemporalNodes()), back.NumAuthors())

	// The community of a mid-ranked author: peers influenced by the same
	// sources (backward to the leaves, then forward union).
	mid := scores[len(scores)-1].Author
	midStamp := g.ActiveStamps(mid)[len(g.ActiveStamps(mid))-1]
	com, err := an.Community(mid, midStamp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Community of author %d (shared intellectual ancestry): %d authors\n",
		mid, com.NumAuthors())
}
