package egraph_test

import (
	"testing"

	"repro/internal/egraph"
	"repro/internal/gen"
)

// TestBuildAllocs bounds the allocations of one Build by O(stamps): the
// counting-sort Build allocates a fixed number of arrays per stamp and
// per graph, never one per node or per edge.
func TestBuildAllocs(t *testing.T) {
	g := gen.Random(gen.RandomConfig{Nodes: 500, Stamps: 8, Edges: 5000, Directed: true, Seed: 1})
	b := egraph.NewBuilder(g.Directed())
	for s := range g.NumStamps() {
		g.VisitEdges(int32(s), func(u, v int32, _ float64) bool {
			b.AddEdge(u, v, g.TimeLabel(s))
			return true
		})
	}
	stamps := g.NumStamps()
	allocs := testing.AllocsPerRun(5, func() { b.Build() })
	if bound := 16*stamps + 32; allocs > float64(bound) {
		t.Fatalf("Build made %.0f allocations on %d stamps, want at most 16·T + 32 = %d", allocs, stamps, bound)
	}
	t.Logf("Build: %.0f allocations on %d stamps", allocs, stamps)
}
