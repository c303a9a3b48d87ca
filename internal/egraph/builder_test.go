package egraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ds"
)

// buildReference is the map-based Build that the counting-sort Build
// replaced: every stamp dedupes its edges through a hash map keyed by
// the canonical (u, v), expands the map into arcs, and sorts each row.
// Build must return a graph reflect.DeepEqual to it.
func buildReference(b *Builder) *IntEvolvingGraph {
	n := int(b.maxNode) + 1

	labelSet := make(map[int64]struct{}, 16)
	for i := range b.edges {
		labelSet[b.edges[i].t] = struct{}{}
	}
	times := make([]int64, 0, len(labelSet))
	for t := range labelSet {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	stampOf := make(map[int64]int32, len(times))
	for i, t := range times {
		stampOf[t] = int32(i)
	}

	g := &IntEvolvingGraph{
		directed: b.directed,
		weighted: b.weighted,
		times:    times,
		snaps:    make([]snapshot, len(times)),
		numNodes: n,
	}
	perStamp := make([]map[refEdgeKey]float64, len(times))
	for i := range perStamp {
		perStamp[i] = make(map[refEdgeKey]float64)
	}
	for i := range b.edges {
		e := &b.edges[i]
		k := refEdgeKey{e.u, e.v}
		if !b.directed && k.u > k.v {
			k.u, k.v = k.v, k.u
		}
		perStamp[stampOf[e.t]][k] = e.w
	}
	for si := range perStamp {
		g.snaps[si] = refSnapshot(n, b.directed, b.weighted, perStamp[si])
	}

	g.activeAt = make([][]int32, n)
	for si := range g.snaps {
		act := g.snaps[si].active
		for v := act.NextSet(0); v >= 0; v = act.NextSet(v + 1) {
			g.activeAt[v] = append(g.activeAt[v], int32(si))
			g.numActive++
		}
	}
	return g
}

type refEdgeKey struct {
	u, v int32
}

func refSnapshot(n int, directed, weighted bool, edges map[refEdgeKey]float64) snapshot {
	type arc struct {
		u, v int32
		w    float64
	}
	arcs := make([]arc, 0, 2*len(edges))
	for k, w := range edges {
		arcs = append(arcs, arc{k.u, k.v, w})
		if !directed {
			arcs = append(arcs, arc{k.v, k.u, w})
		}
	}

	s := snapshot{active: ds.NewBitSet(n), edges: len(edges)}
	s.outPtr = make([]int32, n+1)
	s.inPtr = make([]int32, n+1)
	for _, a := range arcs {
		s.outPtr[a.u+1]++
		s.inPtr[a.v+1]++
		s.active.Set(int(a.u))
		s.active.Set(int(a.v))
	}
	for i := 0; i < n; i++ {
		s.outPtr[i+1] += s.outPtr[i]
		s.inPtr[i+1] += s.inPtr[i]
	}
	s.outAdj = make([]int32, len(arcs))
	s.inAdj = make([]int32, len(arcs))
	if weighted {
		s.outW = make([]float64, len(arcs))
		s.inW = make([]float64, len(arcs))
	}
	nextOut := make([]int32, n)
	nextIn := make([]int32, n)
	copy(nextOut, s.outPtr[:n])
	copy(nextIn, s.inPtr[:n])
	for _, a := range arcs {
		po := nextOut[a.u]
		s.outAdj[po] = a.v
		if weighted {
			s.outW[po] = a.w
		}
		nextOut[a.u] = po + 1

		pi := nextIn[a.v]
		s.inAdj[pi] = a.u
		if weighted {
			s.inW[pi] = a.w
		}
		nextIn[a.v] = pi + 1
	}
	for v := 0; v < n; v++ {
		refSortAdj(s.outAdj, s.outW, int(s.outPtr[v]), int(s.outPtr[v+1]))
		refSortAdj(s.inAdj, s.inW, int(s.inPtr[v]), int(s.inPtr[v+1]))
	}
	return s
}

func refSortAdj(adj []int32, w []float64, lo, hi int) {
	if hi-lo < 2 {
		return
	}
	if w == nil {
		s := adj[lo:hi]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return
	}
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = i
	}
	a, ww := adj[lo:hi], w[lo:hi]
	sort.Slice(idx, func(i, j int) bool { return a[idx[i]] < a[idx[j]] })
	na := make([]int32, len(idx))
	nw := make([]float64, len(idx))
	for i, p := range idx {
		na[i], nw[i] = a[p], ww[p]
	}
	copy(a, na)
	copy(ww, nw)
}

// checkBuild builds b and compares the result with buildReference; it
// also checks that Build left the recorded edges as they were.
func checkBuild(b *Builder) error {
	before := slices.Clone(b.edges)
	got := b.Build()
	if !slices.Equal(b.edges, before) {
		return fmt.Errorf("Build reordered the Builder's edges")
	}
	if want := buildReference(b); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Build differs from buildReference:\n got %+v\nwant %+v", got, want)
	}
	return nil
}

// builderCase is a random Builder script. Node ids and labels come
// from small pools, so duplicate edges, reversed undirected duplicates
// and self-loops are common; the pools hold sparse ids and negative,
// sparse labels; weights repeat an edge with a different weight. The
// Builder is built after the first split edges, extended with the rest
// and built again.
type builderCase struct {
	directed, weighted bool
	edges              []rawEdge
	split              int
}

var (
	caseNodes   = []int32{0, 1, 2, 3, 4, 5, 63, 64, 1000}
	caseLabels  = []int64{-3, 0, 1, 2, 7, -1 << 40, 1 << 33}
	caseWeights = []float64{0.5, 1, 2, 3}
)

func (builderCase) Generate(r *rand.Rand, size int) reflect.Value {
	c := builderCase{directed: r.Intn(2) == 0, weighted: r.Intn(2) == 0}
	nodes := caseNodes[:2+r.Intn(len(caseNodes)-1)]
	labels := caseLabels[:1+r.Intn(len(caseLabels))]
	m := r.Intn(size + 1)
	for range m {
		c.edges = append(c.edges, rawEdge{
			u: nodes[r.Intn(len(nodes))],
			v: nodes[r.Intn(len(nodes))],
			t: labels[r.Intn(len(labels))],
			w: caseWeights[r.Intn(len(caseWeights))],
		})
	}
	c.split = r.Intn(m + 1)
	return reflect.ValueOf(c)
}

func (c builderCase) builder() *Builder {
	if c.weighted {
		return NewWeightedBuilder(c.directed)
	}
	return NewBuilder(c.directed)
}

func addEdges(b *Builder, edges []rawEdge) {
	for _, e := range edges {
		b.AddWeightedEdge(e.u, e.v, e.t, e.w)
	}
}

func TestBuildMatchesReference(t *testing.T) {
	for _, directed := range []bool{false, true} {
		if err := checkBuild(NewBuilder(directed)); err != nil {
			t.Fatalf("empty Builder: %v", err)
		}
	}
	f := func(c builderCase) bool {
		b := c.builder()
		addEdges(b, c.edges[:c.split])
		if err := checkBuild(b); err != nil {
			t.Logf("%+v, first build: %v", c, err)
			return false
		}
		addEdges(b, c.edges[c.split:])
		if err := checkBuild(b); err != nil {
			t.Logf("%+v, second build: %v", c, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// decodeBuildCase turns fuzz bytes into Builder calls. Byte 0 holds the
// flags (bit 0 directed, bit 1 weighted); every following 4-byte group
// is an edge (u, v, label, weight), except that a group starting with
// 0xff is a one-byte checkpoint at which the caller builds. Id bytes
// map to 16 ids, spread to multiples of 37 when bit 4 is set; label
// bytes map to the 16 labels -8..7.
func decodeBuildCase(data []byte, checkpoint func(*Builder)) {
	if len(data) == 0 {
		return
	}
	var b *Builder
	if data[0]&2 != 0 {
		b = NewWeightedBuilder(data[0]&1 != 0)
	} else {
		b = NewBuilder(data[0]&1 != 0)
	}
	node := func(x byte) int32 {
		id := int32(x & 0x0f)
		if x&0x10 != 0 {
			id *= 37
		}
		return id
	}
	for e, n := data[1:], 0; len(e) > 0 && n < 256; n++ {
		if e[0] == 0xff {
			checkpoint(b)
			e = e[1:]
			continue
		}
		if len(e) < 4 {
			break
		}
		b.AddWeightedEdge(node(e[0]), node(e[1]), int64(int8(e[2]))/16, float64(e[3]%4))
		e = e[4:]
	}
	checkpoint(b)
}

// FuzzBuild checks Build against buildReference on arbitrary Builder
// scripts, at every checkpoint and at the end.
//
//	go test -race -run '^$' -fuzz '^FuzzBuild$' -fuzztime 30s ./internal/egraph
//
// Plain `go test` replays the committed corpus under testdata/fuzz: a
// directed and an undirected weighted script with duplicates and a
// checkpoint, reversed undirected duplicates, self-loops and spread ids,
// and an empty script.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeBuildCase(data, func(b *Builder) {
			if err := checkBuild(b); err != nil {
				t.Fatal(err)
			}
		})
	})
}
