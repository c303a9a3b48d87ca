package citation

import (
	"testing"

	"repro/internal/egraph"
	"repro/internal/gen"
)

func tn(v, s int32) egraph.TemporalNode { return egraph.TemporalNode{Node: v, Stamp: s} }

// chainNetwork builds a hand-checkable citation chain:
//
//	year 1: author 1 cites author 0
//	year 2: author 2 cites author 1
//	year 3: author 3 cites author 2
//
// Influence of 0's year-1 work must reach {0,1,2,3}.
func chainNetwork(t *testing.T) *Analyzer {
	t.Helper()
	b := egraph.NewBuilder(true)
	b.AddEdge(1, 0, 1)
	b.AddEdge(2, 1, 2)
	b.AddEdge(3, 2, 3)
	a, err := NewAnalyzer(b.Build(), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestInfluenceChain(t *testing.T) {
	a := chainNetwork(t)
	set, err := a.Influence(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumAuthors() != 4 {
		t.Fatalf("influence of author 0 = %v, want 4 authors", set.authors)
	}
	for _, author := range []int32{0, 1, 2, 3} {
		if !set.ContainsAuthor(author) {
			t.Fatalf("author %d missing from influence set", author)
		}
	}
	// Author 3's work influences nobody else.
	set3, err := a.Influence(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if set3.NumAuthors() != 1 {
		t.Fatalf("influence of author 3 = %v, want just itself", set3.authors)
	}
}

func TestInfluencersChain(t *testing.T) {
	a := chainNetwork(t)
	// T⁻¹ of author 3 at its citing year: everyone upstream.
	set, err := a.Influencers(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumAuthors() != 4 {
		t.Fatalf("influencers of author 3 = %v, want 4 authors", set.authors)
	}
	// T⁻¹ of author 0 (cited only): nobody influenced 0.
	set0, err := a.Influencers(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if set0.NumAuthors() != 1 {
		t.Fatalf("influencers of author 0 = %v, want just itself", set0.authors)
	}
}

func TestInfluenceRespectsTime(t *testing.T) {
	// Author 1 cites 0 in year 3; author 2 cites 1 in year 1 (earlier!).
	// Influence of 0 must NOT flow through to 2: the citation 2→1
	// happened before 1 absorbed 0's work.
	b := egraph.NewBuilder(true)
	b.AddEdge(1, 0, 3)
	b.AddEdge(2, 1, 1)
	a, err := NewAnalyzer(b.Build(), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	set, err := a.Influence(0, 1) // 0 active at stamp of year 3 = index 1
	if err != nil {
		t.Fatal(err)
	}
	if set.ContainsAuthor(2) {
		t.Fatal("influence leaked backward in time to author 2")
	}
	if !set.ContainsAuthor(1) {
		t.Fatal("direct citer missing from influence set")
	}
}

func TestLeavesOfInfluencerTree(t *testing.T) {
	// Diamond: 3 cites 1 and 2 (year 2); 1 and 2 each cite 0 (year 1).
	b := egraph.NewBuilder(true)
	b.AddEdge(1, 0, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(3, 1, 2)
	b.AddEdge(3, 2, 2)
	a, err := NewAnalyzer(b.Build(), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := a.Influencers(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	leaves := back.Leaves()
	// The deepest influencer is author 0 at year 1.
	found := false
	for _, l := range leaves {
		if l.Node == 0 {
			found = true
		}
		if l == tn(3, 1) {
			t.Fatal("root listed as leaf despite having children")
		}
	}
	if !found {
		t.Fatalf("author 0 missing from leaves %v", leaves)
	}
}

func TestCommunityDiamond(t *testing.T) {
	// Same diamond; community of author 1 = everyone influenced by 0's
	// early work, i.e. {0, 1, 2, 3}.
	b := egraph.NewBuilder(true)
	b.AddEdge(1, 0, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(3, 1, 2)
	b.AddEdge(3, 2, 2)
	a, err := NewAnalyzer(b.Build(), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	com, err := a.Community(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, author := range []int32{0, 1, 2, 3} {
		if !com.ContainsAuthor(author) {
			t.Fatalf("author %d missing from community %v", author, com.authors)
		}
	}
	// A community is a union of searches, so it keeps no distances.
	if com.res != nil {
		t.Fatal("community kept a search result")
	}
}

func TestCommunitySeparateSchools(t *testing.T) {
	// Two disjoint schools: {0←1} and {2←3}. The community of 1 must not
	// contain school B.
	b := egraph.NewBuilder(true)
	b.AddEdge(1, 0, 1)
	b.AddEdge(3, 2, 1)
	a, err := NewAnalyzer(b.Build(), egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	com, err := a.Community(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if com.ContainsAuthor(2) || com.ContainsAuthor(3) {
		t.Fatalf("community of author 1 leaked into the other school: %v", com.authors)
	}
	if !com.ContainsAuthor(0) || !com.ContainsAuthor(1) {
		t.Fatalf("community of author 1 incomplete: %v", com.authors)
	}
}

func TestRankByInfluence(t *testing.T) {
	a := chainNetwork(t)
	scores, err := a.RankByInfluence(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("scores = %v, want 4 entries", scores)
	}
	// Author 0 tops the chain with 3 influenced authors.
	if scores[0].Author != 0 || scores[0].Influence != 3 {
		t.Fatalf("top = %+v, want author 0 with influence 3", scores[0])
	}
	// Last is author 3 with 0.
	if scores[3].Author != 3 || scores[3].Influence != 0 {
		t.Fatalf("bottom = %+v, want author 3 with influence 0", scores[3])
	}
	top2, err := a.RankByInfluence(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top2) != 2 || top2[0].Author != 0 {
		t.Fatalf("top2 = %v", top2)
	}
}

func TestAnalyzerRejectsUndirected(t *testing.T) {
	b := egraph.NewBuilder(false)
	b.AddEdge(0, 1, 1)
	if _, err := NewAnalyzer(b.Build(), egraph.CausalAllPairs); err == nil {
		t.Fatal("undirected graph should be rejected")
	}
}

func TestInfluenceErrorsOnInactive(t *testing.T) {
	a := chainNetwork(t)
	if _, err := a.Influence(3, 0); err == nil {
		t.Fatal("author 3 is inactive at stamp 0; query should fail")
	}
}

func TestSyntheticNetworkInvariants(t *testing.T) {
	g, firstPub := gen.Citation(gen.DefaultCitationConfig())
	a, err := NewAnalyzer(g, egraph.CausalAllPairs)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := a.RankByInfluence(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 10 {
		t.Fatalf("topK = %d, want 10", len(scores))
	}
	// Influence can only reach authors who published.
	top := scores[0]
	set, err := a.Influence(top.Author, g.ActiveStamps(top.Author)[0])
	if err != nil {
		t.Fatal(err)
	}
	for author := set.authors.NextSet(0); author >= 0; author = set.authors.NextSet(author + 1) {
		if firstPub[author] < 0 && len(g.ActiveStamps(int32(author))) == 0 {
			t.Fatalf("influenced author %d never appeared in the network", author)
		}
	}
	// Early authors tend to out-influence late ones: the top author must
	// influence at least as many as the median.
	mid := scores[len(scores)/2]
	if top.Influence < mid.Influence {
		t.Fatal("ranking not sorted by influence")
	}
}

func TestInfluenceSetAccessors(t *testing.T) {
	a := chainNetwork(t)
	set, err := a.Influence(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := set.TemporalNodes()
	if len(nodes) == 0 {
		t.Fatal("no temporal nodes")
	}
	// Mutating the returned slice must not corrupt the set.
	nodes[0] = tn(99, 0)
	if set.TemporalNodes()[0] == tn(99, 0) && len(nodes) == 1 {
		t.Fatal("TemporalNodes aliases internal storage")
	}
	if set.res.Dist(tn(0, 0)) != 0 {
		t.Fatal("root distance should be 0")
	}
}
