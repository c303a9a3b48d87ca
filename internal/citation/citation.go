// Package citation implements the Sec. V application of the evolving-graph
// BFS: mining influence structure from citation networks. The network is
// a directed evolving graph with an edge i→j at stamp t for every
// citation of author j by author i in a publication at time t.
//
// Influence flows *against* citation edges and *forward* in time: if i
// cites j, then j has influenced i and everyone who later builds on i.
// The three queries of the paper are:
//
//   - Influence (T(a,t)): all authors transitively influenced by a's
//     work at time t — a forward-in-time BFS over reversed edges.
//   - Influencers (T⁻¹(a,t)): all authors whose work influenced a at
//     time t — a backward-in-time BFS along citation edges.
//   - Community: the authors influenced by the same sources as a —
//     found by taking the leaves of the influencer tree and uniting
//     their forward influence sets ("searching backward in time …
//     and then searching forward", Sec. V).
package citation

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/egraph"
)

// Analyzer runs influence queries over a citation network.
type Analyzer struct {
	g    *egraph.IntEvolvingGraph
	mode egraph.CausalMode
}

// NewAnalyzer wraps a citer→cited evolving graph. The graph must be
// directed.
func NewAnalyzer(g *egraph.IntEvolvingGraph, mode egraph.CausalMode) (*Analyzer, error) {
	if !g.Directed() {
		return nil, fmt.Errorf("citation: network must be directed (edges are citer→cited)")
	}
	return &Analyzer{g: g, mode: mode}, nil
}

// InfluenceSet is the result of an influence query: a set of temporal
// nodes together with the distinct authors among them.
type InfluenceSet struct {
	res     *core.Result
	authors *ds.BitSet
	nodes   []egraph.TemporalNode
}

// NumAuthors returns the number of distinct authors in the set
// (including the query root's author).
func (s *InfluenceSet) NumAuthors() int { return s.authors.Count() }

// ContainsAuthor reports whether any temporal node of the author is in
// the set.
func (s *InfluenceSet) ContainsAuthor(author int32) bool {
	return int(author) < s.authors.Len() && s.authors.Get(int(author))
}

// TemporalNodes returns the reached temporal nodes.
func (s *InfluenceSet) TemporalNodes() []egraph.TemporalNode {
	return append([]egraph.TemporalNode(nil), s.nodes...)
}

// Influence computes T(author, stamp): every author influenced by the
// root author's work at the given stamp.
func (a *Analyzer) Influence(author, stamp int32) (*InfluenceSet, error) {
	return a.search(author, stamp, core.Options{
		Mode:         a.mode,
		Direction:    core.Forward,
		ReverseEdges: true, // influence flows cited→citer
		TrackParents: true,
	})
}

// Influencers computes T⁻¹(author, stamp): every author whose work
// influenced the root author at the given stamp.
func (a *Analyzer) Influencers(author, stamp int32) (*InfluenceSet, error) {
	return a.search(author, stamp, core.Options{
		Mode:         a.mode,
		Direction:    core.Backward,
		ReverseEdges: true, // follow citations backward in time
		TrackParents: true,
	})
}

func (a *Analyzer) search(author, stamp int32, opts core.Options) (*InfluenceSet, error) {
	root := egraph.TemporalNode{Node: author, Stamp: stamp}
	res, err := core.BFS(a.g, root, opts)
	if err != nil {
		return nil, err
	}
	return a.newSet(res), nil
}

func (a *Analyzer) newSet(res *core.Result) *InfluenceSet {
	s := &InfluenceSet{res: res, authors: ds.NewBitSet(a.g.NumNodes())}
	res.Visit(func(tn egraph.TemporalNode, _ int) bool {
		s.authors.Set(int(tn.Node))
		s.nodes = append(s.nodes, tn)
		return true
	})
	return s
}

// Leaves returns the leaves of the influence tree: reached temporal
// nodes that are not the parent of any other reached node. For an
// Influencers query these are the paper's (l1,t1)…(lk,tk).
func (s *InfluenceSet) Leaves() []egraph.TemporalNode {
	if s.res == nil {
		return nil
	}
	isParent := make(map[egraph.TemporalNode]bool)
	for _, tn := range s.nodes {
		if p, ok := s.res.Parent(tn); ok {
			isParent[p] = true
		}
	}
	var leaves []egraph.TemporalNode
	for _, tn := range s.nodes {
		if !isParent[tn] {
			leaves = append(leaves, tn)
		}
	}
	return leaves
}

// Community computes the paper's community of an author at a stamp: the
// union of the forward influence sets of every leaf of the influencer
// tree — "a group of researchers that have been influenced by the same
// authors".
func (a *Analyzer) Community(author, stamp int32) (*InfluenceSet, error) {
	back, err := a.Influencers(author, stamp)
	if err != nil {
		return nil, err
	}
	union := &InfluenceSet{authors: ds.NewBitSet(a.g.NumNodes())}
	seen := make(map[egraph.TemporalNode]bool)
	for _, leaf := range back.Leaves() {
		fwd, err := a.Influence(leaf.Node, leaf.Stamp)
		if err != nil {
			return nil, err
		}
		for _, tn := range fwd.nodes {
			if !seen[tn] {
				seen[tn] = true
				union.nodes = append(union.nodes, tn)
				union.authors.Set(int(tn.Node))
			}
		}
	}
	return union, nil
}

// Score is one entry of an influence ranking.
type Score struct {
	Author    int32
	Influence int // distinct authors influenced (excluding self)
}

// RankByInfluence scores every author by the size of their influence set
// from their earliest active stamp and returns the topK (all if
// topK ≤ 0), ordered by descending influence, ties by ascending id.
func (a *Analyzer) RankByInfluence(topK int) ([]Score, error) {
	var scores []Score
	for v := int32(0); v < int32(a.g.NumNodes()); v++ {
		stamps := a.g.ActiveStamps(v)
		if len(stamps) == 0 {
			continue
		}
		set, err := a.Influence(v, stamps[0])
		if err != nil {
			return nil, err
		}
		n := set.NumAuthors()
		if set.ContainsAuthor(v) {
			n-- // exclude self
		}
		scores = append(scores, Score{Author: v, Influence: n})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].Influence != scores[j].Influence {
			return scores[i].Influence > scores[j].Influence
		}
		return scores[i].Author < scores[j].Author
	})
	if topK > 0 && topK < len(scores) {
		scores = scores[:topK]
	}
	return scores, nil
}
