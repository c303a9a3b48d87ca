package egraph

import (
	"fmt"
	"strings"
)

// Summary bundles descriptive statistics of an evolving graph.
type Summary struct {
	Nodes            int
	Stamps           int
	StaticEdges      int
	ActiveNodes      int // |V|
	CausalAllPairs   int
	CausalConsec     int
	MaxOutDegree     int     // over all (v, t)
	MeanActivity     float64 // mean #active stamps per ever-active node
	MaxActivity      int     // max #active stamps of any node
	EverActiveNodes  int     // nodes active at ≥1 stamp
	DirectedEdges    bool
	WeightedEdges    bool
	EdgesPerSnapshot []int
}

// Stats computes a Summary in one pass over the graph.
func (g *IntEvolvingGraph) Stats() Summary {
	s := Summary{
		Nodes:          g.NumNodes(),
		Stamps:         g.NumStamps(),
		StaticEdges:    g.StaticEdgeCount(),
		ActiveNodes:    g.NumActiveNodes(),
		CausalAllPairs: g.CausalEdgeCount(CausalAllPairs),
		CausalConsec:   g.CausalEdgeCount(CausalConsecutive),
		DirectedEdges:  g.Directed(),
		WeightedEdges:  g.Weighted(),
	}
	for t := 0; t < g.NumStamps(); t++ {
		s.EdgesPerSnapshot = append(s.EdgesPerSnapshot, g.SnapshotEdgeCount(t))
		act := g.ActiveNodes(t)
		for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
			if d := g.OutDegree(int32(v), int32(t)); d > s.MaxOutDegree {
				s.MaxOutDegree = d
			}
		}
	}
	total := 0
	for v := 0; v < g.NumNodes(); v++ {
		k := len(g.activeAt[v])
		if k == 0 {
			continue
		}
		s.EverActiveNodes++
		total += k
		if k > s.MaxActivity {
			s.MaxActivity = k
		}
	}
	if s.EverActiveNodes > 0 {
		s.MeanActivity = float64(total) / float64(s.EverActiveNodes)
	}
	return s
}

// String renders the summary as a small report.
func (s Summary) String() string {
	var b strings.Builder
	kind := "undirected"
	if s.DirectedEdges {
		kind = "directed"
	}
	if s.WeightedEdges {
		kind += ", weighted"
	}
	fmt.Fprintf(&b, "evolving graph (%s): %d nodes over %d stamps\n", kind, s.Nodes, s.Stamps)
	fmt.Fprintf(&b, "  static edges |E~|:      %d\n", s.StaticEdges)
	fmt.Fprintf(&b, "  active temporal nodes:  %d (%d distinct nodes ever active)\n", s.ActiveNodes, s.EverActiveNodes)
	fmt.Fprintf(&b, "  causal edges:           %d all-pairs / %d consecutive\n", s.CausalAllPairs, s.CausalConsec)
	fmt.Fprintf(&b, "  max out-degree:         %d\n", s.MaxOutDegree)
	fmt.Fprintf(&b, "  activity per node:      mean %.2f, max %d stamps\n", s.MeanActivity, s.MaxActivity)
	return b.String()
}
